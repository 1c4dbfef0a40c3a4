#!/usr/bin/env python3
"""Minimal validator for Prometheus text exposition files (format 0.0.4)
as produced by obs/prometheus.h (RenderPrometheusText).

    bench/check_prometheus.py FILE [FILE...]

Checks, per file:
  * every non-comment line parses as `name value` or `name{labels} value`
    with a legal metric name and a finite non-negative number
    (+Inf is legal only as a `le` label value); label values may carry
    the format's escapes (\\\\, \\", \\n) — any other backslash escape is
    a violation;
  * every sample's family has a preceding `# TYPE` line, and no family
    is declared twice (the format allows one block per family);
  * `rq_` namespacing: every family name starts with "rq_";
  * histogram families (TYPE histogram) are coherent: `_bucket` cumulative
    counts are non-decreasing in `le` order, a `le="+Inf"` bucket exists,
    and it equals the family's `_count` sample;
  * at least one counter sample is present (an empty export means the
    binary never touched the registry — that is a wiring bug, not a
    quiet success).

Exit status: 0 = all files valid, 1 = any violation (each is printed),
2 = usage error.
"""

import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
# Label values are quoted strings with \\, \", and \n escapes (exposition
# format 0.0.4) — a value may contain commas, braces, and escaped quotes,
# so the label block is matched as a sequence of key="..." pairs rather
# than a naive [^}]* slice.
LABEL_PAIR = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
# `name{le="123"} 45`, `name{query="a\"b"} 1`, or `name 45`
SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>(?:' + LABEL_PAIR + r')(?:,' + LABEL_PAIR + r')*)?\})?'
    r' (?P<value>\S+)$')
LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:[^"\\]|\\.)*)"')
# The only legal escapes in a label value.
LABEL_ESCAPE_RE = re.compile(r'\\(?P<c>.)')


def family_of(name):
    """Strips the histogram sample suffixes to the declared family name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def check_file(path):
    errors = []

    def err(lineno, message):
        errors.append(f"{path}:{lineno}: {message}")

    types = {}            # family -> declared type
    counters = 0
    # histogram family -> {"buckets": [(le, value)], "count": int|None}
    histograms = {}

    with open(path) as f:
        lines = f.read().splitlines()

    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                family, metric_type = parts[2], parts[3]
                if not NAME_RE.match(family):
                    err(lineno, f"bad family name {family!r}")
                if not family.startswith("rq_"):
                    err(lineno, f"family {family!r} missing rq_ namespace")
                if metric_type not in ("counter", "gauge", "histogram",
                                       "summary", "untyped"):
                    err(lineno, f"unknown TYPE {metric_type!r}")
                if family in types:
                    err(lineno, f"family {family!r} declared twice "
                                f"(already TYPE {types[family]})")
                types[family] = metric_type
            continue

        m = SAMPLE_RE.match(line)
        if not m:
            err(lineno, f"unparseable sample line: {line!r}")
            continue
        name, labels, raw_value = (m.group("name"), m.group("labels"),
                                   m.group("value"))
        family = family_of(name)
        declared = types.get(family) or types.get(name)
        if declared is None:
            err(lineno, f"sample {name!r} has no preceding # TYPE")
            continue

        le = None
        if labels:
            for lm in LABEL_RE.finditer(labels):
                val = lm.group("val")
                for em in LABEL_ESCAPE_RE.finditer(val):
                    if em.group("c") not in ('\\', '"', 'n'):
                        err(lineno, f"illegal escape \\{em.group('c')!s} "
                                    f"in label value {val!r}")
                if lm.group("key") == "le":
                    le = val

        try:
            value = float(raw_value)
        except ValueError:
            err(lineno, f"non-numeric value {raw_value!r}")
            continue
        if value != value or value in (float("inf"), float("-inf")):
            err(lineno, f"non-finite value {raw_value!r}")
            continue
        if value < 0:
            err(lineno, f"negative value {raw_value!r} for {name!r}")

        if declared == "counter":
            counters += 1
        if declared == "histogram":
            entry = histograms.setdefault(family,
                                          {"buckets": [], "count": None})
            if name.endswith("_bucket"):
                if le is None:
                    err(lineno, f"{name!r} bucket missing le label")
                else:
                    entry["buckets"].append((lineno, le, value))
            elif name.endswith("_count"):
                entry["count"] = (lineno, value)

    for family, entry in sorted(histograms.items()):
        buckets = entry["buckets"]
        if not buckets:
            err(0, f"histogram {family!r} has no _bucket samples")
            continue
        prev = -1.0
        for lineno, le, value in buckets:
            if value < prev:
                err(lineno, f"histogram {family!r} bucket le={le} "
                            f"not cumulative ({value} < {prev})")
            prev = value
        last_lineno, last_le, last_value = buckets[-1]
        if last_le != "+Inf":
            err(last_lineno, f"histogram {family!r} last bucket is "
                             f'le="{last_le}", expected le="+Inf"')
        if entry["count"] is None:
            err(0, f"histogram {family!r} has no _count sample")
        elif entry["count"][1] != last_value:
            err(entry["count"][0],
                f"histogram {family!r} _count {entry['count'][1]} != "
                f'le="+Inf" bucket {last_value}')

    if counters == 0:
        err(0, "no counter samples at all — empty or unwired export")
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    all_errors = []
    for path in argv[1:]:
        all_errors.extend(check_file(path))
    for e in all_errors:
        print(e, file=sys.stderr)
    if all_errors:
        return 1
    print(f"check_prometheus: {len(argv) - 1} file(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
