"""Seeded inputs for the three workloads.

Everything here is drawn from ``random.Random`` streams derived from
the run's ``--seed``, so one seed always gives one input set.  The
program under test only ever receives the generated SQL texts and
rows:

* :class:`AdhocInstances` turns each of the 32 ``WORKLOAD_QUERIES``
  templates into fresh instances by redrawing their literals (years,
  months, states, quantity and price bounds, LIMITs, ...), never
  repeating a text within a run;
* :func:`day_rows` builds one landed day of fact rows (a write);
* :func:`zipf_sequence` makes the service's skewed query sequence, and
  :func:`poisson_schedule` the arrivals ``max_qps_at_slo`` replays.
"""

from __future__ import annotations

import random
import re

from repro.tpcds.queries import STUDIED_QUERIES, WORKLOAD_QUERIES

STATES = ["TN", "GA", "CA", "TX", "OH", "WA", "NY", "IL"]
CATEGORIES = [
    "Music", "Books", "Electronics", "Home", "Sports",
    "Shoes", "Jewelry", "Women", "Men", "Children",
]
DAY_NAMES = ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday"]
INITIALS = ["J", "M", "L", "R", "S", "D", "K"]
#: Surrogate key of the first calendar day and the calendar length.
FIRST_DATE_SK = 2450816
CALENDAR_DAYS = 1826


def _between(lo_min: int, lo_max: int):
    """Shift ``BETWEEN a AND b`` to a fresh start, keeping its width."""

    def draw(rng: random.Random, m: re.Match) -> str:
        width = int(m.group(3)) - int(m.group(2))
        lo = rng.randint(lo_min, lo_max)
        return f"{m.group(1)} BETWEEN {lo} AND {lo + width}"

    return draw


def _pick(options, fmt="{}"):
    return lambda rng, m: m.group(0)[: m.start(1) - m.start(0)] + fmt.format(
        rng.choice(options)
    ) + m.group(0)[m.end(1) - m.start(0):]


def _int(lo: int, hi: int, step: int = 1):
    return _pick(range(lo, hi + 1, step))


def _limit(rng: random.Random, m: re.Match) -> str:
    n = int(m.group(1))
    return f"LIMIT {rng.randint(max(1, n // 2), n + n // 2)}"


def _in_list(options, k: int, quote: bool):
    def draw(rng: random.Random, m: re.Match) -> str:
        picks = rng.sample(options, k)
        body = ", ".join(f"'{p}'" if quote else str(p) for p in picks)
        return f"{m.group(0)[: m.start(1) - m.start(0)]}{body})"

    return draw


def _q28_range(rng: random.Random, m: re.Match) -> str:
    base = max(0, int(m.group(1)) + rng.randint(-6, 6))
    return f"BETWEEN {base} AND {base} + {m.group(2)}"


#: (pattern, draw) literal rules.  A rule draws once per distinct
#: matched text within an instance, so a literal repeated inside one
#: template (a CTE and its copy, both UNION ALL branches) stays equal
#: and the fusion opportunity the template was written for survives.
LITERAL_RULES: list[tuple[re.Pattern, object]] = [
    (re.compile(r"\bd_year = (\d{4})\b"), _int(1998, 2002)),
    (re.compile(r"\bd_moy = (\d{1,2})\b"), _int(1, 12)),
    (re.compile(r"\b(d_moy) BETWEEN (\d+) AND (\d+)"), _between(1, 10)),
    (re.compile(r"\b(d_month_seq) BETWEEN (\d+) AND (\d+)"), _between(1176, 1224)),
    (re.compile(r"\b(?:s_state|ca_state) = '([A-Z]{2})'"), _pick(STATES)),
    (re.compile(r"\bi_manufact_id = (\d+)"), _int(1, 99)),
    (re.compile(r"\bi_manufact_id IN \(([\d, ]+)\)"), _in_list(list(range(1, 100)), 4, False)),
    (re.compile(r"\bi_category = '(\w+)'"), _pick(CATEGORIES)),
    (re.compile(r"\bi_category IN \(([^)]*)\)"), _in_list(CATEGORIES, 3, True)),
    (re.compile(r"\b(i_current_price) BETWEEN (\d+) AND (\d+)"), _between(0, 150)),
    (re.compile(r"\b(inv_quantity_on_hand) BETWEEN (\d+) AND (\d+)"), _between(0, 600)),
    (re.compile(r"\b(ss_sold_time_sk) BETWEEN (\d+) AND (\d+)"), _between(0, 900)),
    (re.compile(r"avg\(ctr_total_return\) \* (\d\.\d+)"), _pick(["1.1", "1.2", "1.3", "1.4", "1.5"])),
    (re.compile(r"> (\d{4,5})\s+THEN"), _int(5000, 11000, 250)),
    (re.compile(r"HAVING count\(\*\) > (\d+)"), _int(1, 8)),
    (re.compile(r"ss_sales_price\) > (\d+)"), _int(20000, 40000, 1000)),
    (re.compile(r"BETWEEN (\d+) AND \1 \+ (\d+)"), _q28_range),
    (re.compile(r"(\d\.\d+) \* sb\.ave"), _pick(["0.05", "0.08", "0.1", "0.12", "0.15", "0.2"])),
    (re.compile(r"\bt_hour = (\d+)"), _int(6, 21)),
    (re.compile(r"\bhd_dep_count = (\d+)"), _int(0, 9)),
    (re.compile(r"\bs_store_name = 'store (\d+)'"), _int(1, 12)),
    (re.compile(r"\bs_store_name <> 'store (\d+)'"), _int(1, 999)),
    (re.compile(r"\bd_day_name = '(\w+)'"), _pick(DAY_NAMES)),
    (re.compile(r"LIKE '([A-Z])%'"), _pick(INITIALS)),
    (re.compile(r"sum\(sr_return_amt\), (\d+\.\d+)\)"), _pick(range(1000), "{}.0")),
    (re.compile(r"avg\(i_current_price\) > (\d+)"), _int(40, 160)),
    (re.compile(r"\bss_sold_date_sk = (\d{7})"), _int(FIRST_DATE_SK, FIRST_DATE_SK + CALENDAR_DAYS - 1)),
    (re.compile(r"\bLIMIT (\d+)\s*$"), _limit),
]


def instantiate(template: str, rng: random.Random) -> str:
    """One instance of ``template`` with every known literal redrawn."""
    sql = template.strip()
    for pattern, draw in LITERAL_RULES:
        memo: dict[str, str] = {}

        def replace(m: re.Match) -> str:
            if m.group(0) not in memo:
                memo[m.group(0)] = draw(rng, m)
            return memo[m.group(0)]

        sql = pattern.sub(replace, sql)
    return sql


_ALIAS = re.compile(r"\b(AS \w+)")


class AdhocInstances:
    """Fresh, never-repeating instances of the workload templates."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"adhoc-{seed}")
        self.templates = dict(WORKLOAD_QUERIES)
        self.seen: set[str] = set()

    def draw(self, name: str) -> str:
        for _ in range(20):
            sql = instantiate(self.templates[name], self.rng)
            if sql not in self.seen:
                break
        else:
            # Few literals (or none, as in x06): rename the first output
            # alias, the one part of the text that can change without
            # changing the work the query asks for.
            sql = _ALIAS.sub(rf"\1_{len(self.seen)}", sql, count=1)
        self.seen.add(sql)
        return sql

    def round(self) -> list[tuple[str, str]]:
        """Every template once, in a seeded order."""
        names = list(self.templates)
        self.rng.shuffle(names)
        return [(name, self.draw(name)) for name in names]


def dashboard_rounds(seed: int, reads_per_text: int):
    """Endless dashboard rounds: the studied queries' names, each
    ``reads_per_text`` times, in a fresh seeded order per round."""
    rng = random.Random(f"dashboard-{seed}")
    names = [n for n in STUDIED_QUERIES for _ in range(reads_per_text)]
    while True:
        order = list(names)
        rng.shuffle(order)
        yield order


def day_rows(stored_table, day_sk: int, rows: int, rng: random.Random) -> dict[str, list]:
    """One landed day of fact rows: ``rows`` rows resampled from the
    table's current data, stamped with the landing day's date key."""
    definition = stored_table.definition
    names = [c.name for c in definition.columns]
    partitions = stored_table.partitions
    out: dict[str, list] = {name: [] for name in names}
    for _ in range(rows):
        part = partitions[rng.randrange(len(partitions))]
        index = rng.randrange(part.row_count)
        for name in names:
            out[name].append(part.chunk(name).values[index])
    out[definition.partition_column] = [day_sk] * rows
    return out


def zipf_sequence(seed: int, pool_size: int, length: int, exponent: float) -> list[int]:
    """``length`` ranks from a Zipf law over ``pool_size`` ranks.

    Counts are fixed by largest-remainder rounding of the Zipf shares,
    and only their order is drawn, so every seed asks for the same
    multiset of ranks — the mix is skewed but not a lottery.
    """
    weights = [1.0 / (rank + 1) ** exponent for rank in range(pool_size)]
    total = sum(weights)
    exact = [length * w / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(pool_size), key=lambda r: (counts[r] - exact[r], r))
    for rank in by_remainder[: length - sum(counts)]:
        counts[rank] += 1
    sequence = [rank for rank, count in enumerate(counts) for _ in range(count)]
    random.Random(f"zipf-{seed}").shuffle(sequence)
    return sequence


def _normalized_gaps(rng: random.Random, means: list[float]) -> list[float]:
    """Exponential gaps with the given means, rescaled so they sum to
    exactly ``sum(means)``: Poisson-like bursts, fixed total span."""
    gaps = [rng.expovariate(1.0) * m for m in means]
    scale = sum(means) / sum(gaps)
    return [g * scale for g in gaps]


def poisson_schedule(seed: int, tag: str, rate: float, count: int) -> list[float]:
    """Due offsets (seconds) of ``count`` arrivals at ``rate`` per second."""
    rng = random.Random(f"{tag}-{seed}")
    offsets, t = [], 0.0
    for gap in _normalized_gaps(rng, [1.0 / rate] * count):
        t += gap
        offsets.append(t)
    return offsets
