"""Shared utilities (retry/backoff)."""

from repro.util.retry import BackoffPolicy, retry_call

__all__ = ["BackoffPolicy", "retry_call"]
