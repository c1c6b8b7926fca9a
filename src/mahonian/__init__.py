"""Exact counting of inversions on colored permutations."""

from .counting import (
    KnuthNettoDomainError,
    MahonianMethod,
    binomial,
    com_bounded,
    gf_colored,
    i_classical,
    i_colored,
    i_colored_row,
    p_bounded,
    pentagonal,
    total_inversions_closed,
    total_inversions_recurrence,
)
from .lehmer import (
    ColoredLehmerCode,
    LehmerCode,
    code_to_colored_perm,
    complement,
    decode,
    encode,
    iter_codes,
    join_color,
    perm_to_code,
    split_color,
    split_radix,
)
from .oracle import (
    CapExceeded,
    ClassKind,
    Distribution,
    distribution,
    enumerate_group,
    group_size,
    verify_suite,
)
from .perm import ColoredElement, ColoredPermutation
from .qpoly import QPolynomial, q_integer
from .special import (
    derangement_count,
    derangement_count_recurrence,
    involution_count,
    involution_count_recurrence,
    involution_inv_total,
    involution_inv_total_classical,
    t_classical,
    t_colored,
    t_colored_terms,
)
from .stats import (
    StatisticKind,
    col,
    cross_term,
    inv,
    inv_c,
    maj,
    max_inv_c,
    tilde_inv_c,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
