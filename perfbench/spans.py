"""The layers the traced run wraps and how its spans become per-layer metrics.

A span is a dict with `name` ("<module>.<function>"), `start`, `end`,
`parent` (index of the enclosing span in the same command, or None) and
`cmd` (command id), plus `size` for the calls whose result size is counted.
The root span of every CLI command is `cli.main`.
"""

import statistics

# Module-level functions the CLI calls, by the module that defines them.
# `ffield` functions are patched on the `cli` module, which imported them
# by name; the others are patched on their own module.
WRAPPED = {
    "ffield": ("make_field", "ker_norm"),
    "quadspace": ("build_anisotropic", "build_hyperbolic", "metric_group_of"),
    "orthogroup": ("enumerate_orth", "dihedral_generators"),
    "fusionring": (
        "build_extension_ring",
        "verify_axioms",
        "fp_dims",
        "equivariantization_census",
        "semidirect_irreps",
        "drinfeld_double_rank",
    ),
    "gtcheck": (
        "non_group_theoretical_suite",
        "hyperbolic_control",
        "gt_criterion",
        "quartic_identity_check",
        "existence_gate",
    ),
}

ROOT = "cli.main"

# Span name -> (metric summing the `size` its calls recorded, size of a result).
SIZES = {
    "fusionring.build_extension_ring": ("fusionring.basis", lambda ring: len(ring.basis)),
    "orthogroup.enumerate_orth": ("orthogroup.maps", len),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)
MODULES = ("cli",) + tuple(WRAPPED)


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = ["cli.import_s", "cli.self_s"]
    names += [f"{mod}.self_s" for mod in WRAPPED]
    names += [f"{span}_s" for span in SPAN_NAMES]
    names += [f"{span}.calls" for span in SPAN_NAMES]
    names += [metric for metric, _ in SIZES.values()]
    names += ["trace.wall_s", "trace.overhead_s"]
    return names


def unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def command_metrics(record: dict) -> dict[str, float]:
    """Per-layer totals of one traced command.

    `<span>_s` is inclusive time: a call nested inside a call of the same
    name is not added again.  `<module>.self_s` is the time during which the
    innermost open span belongs to that module, so a span nested in a span
    of the same module counts toward the module once, and the module self
    times sum to the duration of the `cli.main` span.
    """
    out = {"cli.import_s": record["import_s"]}
    spans = record["spans"]
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    for i, s in enumerate(spans):
        name = s["name"]
        dur = s["end"] - s["start"]
        module = name.split(".", 1)[0]
        key = f"{module}.self_s"
        out[key] = out.get(key, 0.0) + dur - covered[i]
        if name == ROOT:
            continue
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        if name in SIZES:
            metric = SIZES[name][0]
            out[metric] = out.get(metric, 0) + s.get("size", 0)
        if not _inside_same_name(spans, i):
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + dur
    roots = [s for s in spans if s["parent"] is None]
    if roots:
        if len(roots) != 1 or roots[0]["name"] != ROOT:
            raise ValueError(f"expected one {ROOT} root span, got {[s['name'] for s in roots]}")
        wall = roots[0]["end"] - roots[0]["start"]
        self_sum = sum(out.get(f"{m}.self_s", 0.0) for m in MODULES)
        if abs(self_sum - wall) > 1e-6 * max(1.0, wall):
            raise ValueError(f"module self times sum to {self_sum}, command span is {wall}")
    return out


def _inside_same_name(spans: list[dict], i: int) -> bool:
    name = spans[i]["name"]
    parent = spans[i]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def sequence_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer totals over the commands of one traced sequence."""
    totals = {name: 0 for name in metric_names() if not name.startswith("trace.")}
    for record in records:
        for name, value in command_metrics(record).items():
            totals[name] += value
    return totals


def median_metrics(sequences: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced sequences of one run."""
    return {name: statistics.median(s[name] for s in sequences) for name in sequences[0]}
