"""Reader of the CSV text that ``krylovflow.cli.csv_table`` writes, for
the tests that round-trip it."""


def read_table(text):
    """Columns of CSV text as {header name: [cell text, ...]}."""
    rows = [line.split(",") for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty CSV table")
    header = rows[0]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"CSV rows differ in length from header {header}")
    return {name: [row[j] for row in rows[1:]]
            for j, name in enumerate(header)}
