"""Fixed-point proportions of permutation cosets and periodic points of
x^d + c on the projective line over residue fields of cyclotomic base fields.
"""

from .perms import (
    DEGREE_CAP,
    PermSet,
    Permutation,
    ResourceCapError,
    close_under_composition,
    coset,
    cyclic_group,
    fpp,
    from_cycles,
    identity,
    is_transitive,
    mean_trace,
    permset,
    symmetric_group,
    trace,
)
from .indicatrix import (
    DIVERGES,
    IndicatrixPoly,
    IntervalRational,
    PrecisionExhaustedError,
    derivative_at_one,
    epsilon_index,
    indicatrix_of,
    iterate_at_zero,
    value_at,
)
from .wreath import coset_wreath, iterated_wreath, wreath_order
from .powermap import (
    CosetStatus,
    CycSetting,
    Preperiodicity,
    RegimeReport,
    classify_regime,
    coset_gcd,
    coset_indicatrix,
    coset_permset,
    coset_status,
    galois_A,
    zero_orbit_report,
)
from .residue_fields import (
    PrimeOfK,
    RamifiedPrimeError,
    ResidueField,
    make_field,
    prime_stream,
    primes_above,
    reduce_cyclotomic,
)
from .dynamics import (
    FunctionalGraph,
    ReducedMap,
    build_graph,
    general_map,
    image_size_at,
    image_sizes_and_periodic,
    periodic_by_cycles,
    periodic_by_image_iteration,
    power_map,
    reduce_map,
    row_walk,
)
from .bounds import (
    error_term,
    fix_class_count,
    genus_bound,
    ramified_bound,
)

__version__ = "0.1.0"
