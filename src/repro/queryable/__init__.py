"""Queryable state (survey §4.2)."""

from repro.queryable.server import QueryResult, QueryableStateService

__all__ = ["QueryResult", "QueryableStateService"]
