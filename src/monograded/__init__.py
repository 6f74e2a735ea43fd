"""Exact invariants of monomial-ideal quotients and numerical semigroup rings.

The toolkit computes Hilbert series, graded local cohomology lengths,
a-invariants, Eisenbud-Goto invariants, Ratliff-Rush closures, and reduction
numbers, and verifies the inequalities relating them on concrete and seeded
random instances.  All arithmetic is exact, over the integers.
"""

from .monomials import Monomial, MonomialIdeal, parse_ideal, parse_monomial
from .hilbert import HilbertSeries, hilbert_series
from .cohomology import CohomologyTable, cohomology_table
from .filtration import (
    Reduction,
    G_hilbert_series,
    cm_h_vector,
    fiber_cone_series,
    h0_G,
    minimal_reduction,
    mu,
    newton_multiplicity,
    ratliff_rush,
    reduction_number,
    reduction_number_wrt,
)
from .semigroup import (
    NumericalSemigroup,
    SemigroupIdeal,
    colon_sg,
    ideal_power_sg,
    ideal_product_sg,
    length_sg,
    multiplicity_sg,
    reduction_number_sg,
    rr_sg,
)
from .bounds import (
    BoundReport,
    run_corpus,
    verify_eg_inequality,
    verify_main_bound,
    verify_prop_3_1,
    verify_prop_3_3,
    verify_prop_3_4,
)

__version__ = "0.1.0"
