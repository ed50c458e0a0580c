"""RAPTOR core: precision emulation, instrumentation, profiling runtime.

This package is the reproduction of the paper's primary contribution — the
numerical-profiling tool itself.  docs/architecture.md places it in the
layer map; :mod:`repro.core.quantize` explains how rounding each binary64
result stands in for the paper's MPFR variables.
"""
from .array import TruncatedArray, truncate_array, untruncate
from .config import Mode, Scope, TruncationConfig
from .filterspec import FilterSpec, load_filter_file, parse_filter_text, policy_from_filter
from .fpformat import (
    BF16,
    FP8_E4M3,
    FP8_E5M2,
    FP16,
    FP32,
    FP64,
    FPFormat,
    STANDARD_FORMATS,
    parse_truncation_spec,
)
from .instrument import (
    active_config,
    active_context,
    file_scope,
    program_scope,
    trunc_func,
    trunc_func_mem,
    trunc_func_op,
    truncate_region,
)
from .memmode import DeviationReport, ShadowArray, ShadowContext, from_shadow, to_shadow
from .opmode import FPContext, FullPrecisionContext, TruncatedContext, make_context
from .quantize import RoundingMode, is_representable, quantization_error, quantize, ulp
from .registry import LocationRegistry, SourceLocation, capture_location
from .report import feature_matrix, format_table, op_summary, profile_report
from .runtime import MemCounters, OpCounters, OpStats, RaptorRuntime, get_runtime, set_runtime
from .selective import (
    AMRCutoffPolicy,
    GlobalPolicy,
    ModulePolicy,
    NoTruncationPolicy,
    PredicatePolicy,
    TruncationPolicy,
)

__all__ = [
    # formats & quantisation
    "FPFormat", "FP64", "FP32", "FP16", "BF16", "FP8_E5M2", "FP8_E4M3",
    "STANDARD_FORMATS", "parse_truncation_spec",
    "RoundingMode", "quantize", "is_representable", "ulp", "quantization_error",
    # configuration & scoping
    "Mode", "Scope", "TruncationConfig",
    "FilterSpec", "parse_filter_text", "load_filter_file", "policy_from_filter",
    "truncate_region", "program_scope", "file_scope",
    "active_context", "active_config",
    "trunc_func", "trunc_func_op", "trunc_func_mem",
    # contexts
    "FPContext", "FullPrecisionContext", "TruncatedContext", "make_context",
    "ShadowArray", "ShadowContext", "DeviationReport", "to_shadow", "from_shadow",
    "TruncatedArray", "truncate_array", "untruncate",
    # runtime & reporting
    "RaptorRuntime", "get_runtime", "set_runtime",
    "OpCounters", "MemCounters", "OpStats",
    "SourceLocation", "LocationRegistry", "capture_location",
    "profile_report", "op_summary", "feature_matrix", "format_table",
    # policies
    "TruncationPolicy", "NoTruncationPolicy", "GlobalPolicy",
    "AMRCutoffPolicy", "ModulePolicy", "PredicatePolicy",
]
