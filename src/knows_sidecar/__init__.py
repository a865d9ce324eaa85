"""Toolkit for machine-readable research sidecar records.

Load, lint, link, scaffold, query, project, and stress-test sidecar
documents.  The usual entry points:

    from knows_sidecar import load_record, lint, emit_record
"""

from .consumer import (
    ComposedAnswer,
    Query,
    SidecarCache,
    consume,
    page_file_provider,
    retrieve_top_k,
)
from .corruption import InjectionKind, applicable, inject, run_study
from .errors import KnowsError
from .graph import Registry, build_graph, resolve, trace, version_chain
from .linter import LintReport, lint
from .matched import gate_report, parse_matched_output, validate_matched_output
from .model import KnowsRecord, parse_entity_id, parse_profile, parse_ref, parse_spec_version
from .projection import ProjectionCondition, count_tokens, project, record_tokens
from .scaffold import ScaffoldInput, scaffold_record
from .serialization import emit_record, load_record

__all__ = [
    "ComposedAnswer",
    "InjectionKind",
    "KnowsError",
    "KnowsRecord",
    "LintReport",
    "ProjectionCondition",
    "Query",
    "Registry",
    "ScaffoldInput",
    "SidecarCache",
    "applicable",
    "build_graph",
    "consume",
    "count_tokens",
    "emit_record",
    "gate_report",
    "inject",
    "lint",
    "load_record",
    "page_file_provider",
    "parse_entity_id",
    "parse_matched_output",
    "parse_profile",
    "parse_ref",
    "parse_spec_version",
    "project",
    "record_tokens",
    "resolve",
    "retrieve_top_k",
    "run_study",
    "scaffold_record",
    "trace",
    "validate_matched_output",
    "version_chain",
]

__version__ = "0.1.0"
