"""Retrieval metrics and bench-table helpers."""

from __future__ import annotations

from typing import Sequence


def precision_at_k(ranked: Sequence[str], relevant: Sequence[str], k: int) -> float:
    """Fraction of the top-``k`` results that are relevant."""
    if k <= 0:
        raise ValueError("k must be positive")
    top = list(ranked)[:k]
    if not top:
        return 0.0
    relevant_set = set(relevant)
    return sum(1 for item in top if item in relevant_set) / len(top)


def recall(ranked: Sequence[str], relevant: Sequence[str]) -> float:
    """Fraction of relevant items retrieved anywhere in the ranking."""
    relevant_set = set(relevant)
    if not relevant_set:
        return 0.0
    return sum(1 for item in relevant_set if item in set(ranked)) / len(relevant_set)


def average_precision(ranked: Sequence[str], relevant: Sequence[str]) -> float:
    """Mean of precision values at each relevant hit (AP)."""
    relevant_set = set(relevant)
    if not relevant_set:
        return 0.0
    hits = 0
    total = 0.0
    for index, item in enumerate(ranked, start=1):
        if item in relevant_set:
            hits += 1
            total += hits / index
    return total / len(relevant_set)


def kendall_tau(order_a: Sequence[str], order_b: Sequence[str]) -> float:
    """Kendall rank correlation between two orderings of the same items.

    1.0 = identical order, -1.0 = reversed.  Items must coincide.
    """
    if set(order_a) != set(order_b):
        raise ValueError("orderings must contain the same items")
    n = len(order_a)
    if n < 2:
        return 1.0
    position = {item: index for index, item in enumerate(order_b)}
    concordant = discordant = 0
    items = list(order_a)
    for i in range(n):
        for j in range(i + 1, n):
            if position[items[i]] < position[items[j]]:
                concordant += 1
            else:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


# --------------------------------------------------------------------------
# Plain-text tables for benchmark output
# --------------------------------------------------------------------------

def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Align columns for terminal output; floats render with 4 decimals."""

    def render(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.4f}"
        return str(cell)

    rendered = [[render(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Print a titled table (used by every benchmark)."""
    print(f"\n== {title} ==")
    print(format_table(headers, rows))
