"""Helpers that only the tests use."""

from fedclip.engine import RoundRecord, render_record


def record_to_json(record: RoundRecord) -> str:
    """The record's ``rounds.jsonl`` line, without its newline: strict JSON,
    keys in field order, no spaces, every float its shortest repr (see
    ``render_record``)."""
    return render_record(record)[0]
