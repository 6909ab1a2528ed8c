"""Legality, escape, dead-field, and points-to analyses (IPA layer)."""

from .legality import (
    analyze_legality, LegalityResult, TypeInfo,
    AllocSite, ALL_REASONS, RELAXABLE_REASONS, SMAL_THRESHOLD,
    record_of, direct_record_of,
)
from .escape import analyze_escapes, EscapeResult, ESCAPE_REASON
from .deadfields import (
    analyze_field_usage, UsageResult, FieldUsage, FieldRefs,
)
from .pointsto import (
    analyze_points_to, PointsToResult, Loc, relaxed_legal_types,
)

__all__ = [
    "analyze_legality", "LegalityResult", "TypeInfo",
    "AllocSite", "ALL_REASONS", "RELAXABLE_REASONS", "SMAL_THRESHOLD",
    "record_of", "direct_record_of",
    "analyze_escapes", "EscapeResult", "ESCAPE_REASON",
    "analyze_field_usage", "UsageResult", "FieldUsage", "FieldRefs",
    "analyze_points_to", "PointsToResult", "Loc", "relaxed_legal_types",
]
