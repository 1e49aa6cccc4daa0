"""Exact character values of symmetric groups on the abacus encoding,
with prime-power divisibility verifiers and desk-scale statistics."""

from .abacus import (
    Abacus,
    Hook,
    from_partition,
    hooks_of_length,
    is_tcore,
    remove_border_strip,
    skew_per_residue,
    tcore,
    to_partition,
)
from .characters import (
    CharacterTable,
    build_table,
    centralizer_order,
    chi,
    verify_orthogonality,
)
from .divisibility import (
    CombineConfig,
    ReductionTrace,
    VerifyReport,
    combine_step,
    enumerate_hook_sequences,
    epsilon,
    reduce_partition,
    theorem1_pipeline,
    verify_combine_congruence,
)
from .errors import (
    FormatError,
    RangeError,
    SizeCapError,
    UnreachableError,
)
from .partitions import (
    Partition,
    conjugate,
    format_partition,
    hook_lengths,
    parse_partition,
    partition_count,
    partitions_of,
    sample_uniform,
)
from .tableaux import (
    SkewShape,
    count_skew_syt,
    count_syt,
    is_border_strip,
)

__version__ = "0.1.0"
