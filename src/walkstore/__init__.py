"""Succinct storage for walks on fixed graphs with fast positional queries."""

from .bitpack import (
    AppendableArray,
    BitVec,
    RadixSpec,
    SuccinctArray,
)
from .codec import (
    CodecTables,
    WalkCode,
    decode_full,
    decode_vertex,
    encode_walk,
)
from .dictionary import (
    DyadicDist,
    HuffmanGraph,
    SuccinctDictionary,
    build_dictionary,
)
from .errors import (
    FormatError,
    GenerationError,
    InvalidWalkError,
    ParameterError,
    RangeError,
    ResourceError,
    UnsupportedGraphError,
    UnsupportedOperationError,
    WalkstoreError,
)
from .general import (
    BundleTable,
    GeneralStore,
    PeriodicStore,
    SccStore,
    build_general,
    choose_half_block,
    wrap_periodic,
    wrap_scc,
)
from .graph import (
    CountTable,
    Graph,
    GraphAnalysis,
    Walk,
    analyze,
    benchmark_pointwise_bits,
    benchmark_worstcase_bits,
    count_walks,
    gen_walk,
    total_walks,
)
from .pointwise import (
    LabelCounts,
    PointwiseStore,
    build_pointwise,
)
from .regular import (
    RegularStore,
    RegularStoreBuilder,
    build_regular,
    choose_l,
)
from .report import SpaceReport, build_report
from .storefile import build_store, load_store, save_store

__version__ = "0.1.0"
