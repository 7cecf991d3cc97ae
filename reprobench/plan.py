"""What each benchmark workload runs, derived from the seed.

The program only ever sees ``repro`` CLI argument lists; the seed picks
which catalog workloads appear in them.  Everything here is a pure
function of (workload, seed, reference data) so the same seed gives
the same inputs on every commit.
"""

from __future__ import annotations

import random

#: Benchmark workloads and why each is in the set.
WORKLOADS = {
    "repro-cold": "fig10 over 5 seed-chosen workloads from empty stores: "
                  "capture, store writes and six-mode pipeline runs",
    "repro-warm": "every figure and table re-rendered from stores set-up "
                  "filled: trace decode and census, no pipeline run",
    "helios-long": "one long Helios simulation of a seed-chosen kernel: "
                   "the steady per-cycle loop with predictor and UCH",
    "diagnose": "repro analyze and repro debug on one seed-chosen "
                "workload: sanitizer, differential replay, observer",
}

#: ``FusionMode`` values, in the order the paper lists them.
MODES = ("NoFusion", "RISCVFusion", "CSF-SBR", "RISCVFusion++", "Helios",
         "OracleFusion")

#: ``repro.pipeline.core.TOPDOWN_BUCKETS``: one CPI metric each.
TOPDOWN_BUCKETS = ("base", "frontend", "rename", "dispatch_rob",
                   "dispatch_iq", "dispatch_lq", "dispatch_sq", "memory",
                   "branch_flush", "fusion_repair", "drain")

#: Census figures render the full catalog; their text is pinned whole.
CENSUS_EXPERIMENTS = ("fig2", "fig4", "fig5", "table1", "table2")
#: Simulation-backed figures render the seed's subset; rows are pinned.
SIM_EXPERIMENTS = ("fig3", "fig8", "fig9", "fig10", "table3", "cpi")
WARM_ORDER = ("fig2", "fig3", "fig4", "fig5", "fig8", "fig9", "fig10",
              "table1", "table2", "table3", "cpi")

#: Seed subsets are drawn until their summed six-mode sweep cost
#: (``cost_s`` in reference.json, measured when the reference was
#: pinned) lies within ``TOLERANCE`` of the target cost, and their
#: summed trace length within ``TOLERANCE`` of the target µ-ops (when
#: one is given), so times and memory measure the program rather than
#: which kernels the seed drew.
#: (workload, subset size, target cost in seconds, target µ-ops)
COLD = ("repro-cold", 5, 19.0, 112_000)
WARM = ("repro-warm", 2, 7.5, None)
TOLERANCE = 0.015

#: helios-long candidates: kernels on which Helios commits
#: non-consecutive pairs (Figure 8) and whose scaled Helios runs cost
#: about the same time and memory, each at the length pinned in
#: reference.json.  The pointer chasers (605.mcf, 631.deepsjeng) took
#: about 17 % more time and 8 % more memory at this length.
HELIOS_LONG = (("657.xz_1", 300_000), ("typeset", 300_000))

#: diagnose candidates: Helios-fusing workloads whose analyze + debug
#: cost lies within a few percent of each other.
DIAGNOSE = ("dijkstra", "620.omnetpp", "600.perlbench_1", "602.gcc_3")

EVENTS_FILE = "{tmp}/events.json"


def metric_mode(mode: str) -> str:
    """``FusionMode`` value as a metric-name part (``+`` is not allowed)."""
    return mode.lower().replace("+", "p")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


def families(catalog: dict) -> dict[str, list[str]]:
    """Kernel family -> catalog workloads built from it."""
    found: dict[str, list[str]] = {}
    for name in sorted(catalog):
        found.setdefault(catalog[name]["family"], []).append(name)
    return found


def balanced_subset(kind: tuple, seed: int, catalog: dict) -> list[str]:
    """Workloads from distinct kernel families whose summed cost (and
    µ-ops) lie in the bands around ``kind``'s targets."""
    workload, size, target, uops = kind
    rng = _rng(workload, seed)
    members = families(catalog)
    names = sorted(members)
    for _attempt in range(100_000):
        picked = [rng.choice(members[f]) for f in rng.sample(names, size)]
        cost = sum(catalog[n]["cost_s"] for n in picked)
        length = sum(catalog[n]["uops"] for n in picked)
        if abs(cost - target) <= TOLERANCE * target and (
                uops is None or abs(length - uops) <= TOLERANCE * uops):
            return picked
    raise RuntimeError("no cost-balanced %s subset for seed %d"
                       % (workload, seed))


def make_plan(workload: str, seed: int, catalog: dict) -> dict:
    """The set-up steps and timed commands of one run.

    ``setup`` steps run in a separate process before timing and leave
    their state only on disk; ``commands`` are ``repro`` CLI argument
    lists, run one after another in one fresh process.
    """
    if workload == "repro-cold":
        subset = balanced_subset(COLD, seed, catalog)
        return {"workload": workload, "subset": subset, "setup": [],
                "commands": [["experiment", "fig10", "--workloads",
                              ",".join(subset), "--jobs", "1"]]}
    if workload == "repro-warm":
        subset = balanced_subset(WARM, seed, catalog)
        listed = ",".join(subset)
        commands = []
        for name in WARM_ORDER:
            argv = ["experiment", name, "--jobs", "1"]
            if name in SIM_EXPERIMENTS:
                argv[2:2] = ["--workloads", listed]
            commands.append(argv)
        return {"workload": workload, "subset": subset,
                "setup": [["cli", "workloads"],
                          ["cli", "experiment", "fig10", "--workloads",
                           listed, "--jobs", "1"]],
                "commands": commands}
    if workload == "helios-long":
        name, target = _rng(workload, seed).choice(HELIOS_LONG)
        return {"workload": workload, "subset": [name],
                "scale_to": target,
                "setup": [["scaled", name, str(target)]],
                "commands": [["simulate", name, "--mode", "Helios",
                              "--scale-to", str(target)]]}
    if workload == "diagnose":
        name = _rng(workload, seed).choice(DIAGNOSE)
        return {"workload": workload, "subset": [name],
                "setup": [["capture", name]],
                "commands": [["analyze", name, "--mode", "Helios"],
                             ["debug", name, "--events-out", EVENTS_FILE]]}
    raise ValueError("unknown workload %r; choose from: %s"
                     % (workload, ", ".join(WORKLOADS)))
