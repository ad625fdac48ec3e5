"""Exact-arithmetic computer algebra for monoidal Hom-Hopf algebras,
Hom-comodule algebras, and relative Hom-Hopf modules.

Everything is computed over exact rationals from structure constants; the
package decides existence of total (quantum) integrals by affine linear
algebra, constructs the canonical Galois map, and machine-verifies the
structure theorems on a small built-in catalog.
"""

from .errors import (CentralityViolated, EquivalenceViolated, HomHopfError,
                     InstanceFormatError, NotAutomorphism, NotIntertwining,
                     StructureDoesNotDescend, UnknownEntry)
from .linalg import Infeasible, LinearMap, Space, frac, space, tensor_space
from .structures import (ComoduleAlgebra, HomAlgebra, HomHopfAlgebra,
                         check_comodule_algebra, check_hom_algebra,
                         check_hom_coalgebra, check_hom_hopf,
                         regular_comodule_algebra, twist)
from .modules import (HomModule, RelHopfModule, check_rel_hopf, induce_G,
                      induce_Gtilde, is_morphism, prop31_check, prop31_u,
                      prop31_v, regular_rel_hopf)
from .integrals import (QuantumIntegral, TotalIntegral, find_quantum_integral,
                        find_total_integral, theorem43_check)
from .galois import (CoinvariantAlgebra, GaloisMap, balanced_tensor_AA,
                     canonical_psi, coinvariants, cor58_check, thm57_check)
from .catalog import entry, names

__version__ = "0.1.0"
