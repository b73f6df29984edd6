"""Cold-start process of the benchmark: set-up, then at most one run.

Run from the checkout root with ``src`` on PYTHONPATH:

    python3 perfbench/worker.py <workload> [--trace]

It imports ptlattice, builds the workload's families and YAML documents,
prints ``ready`` and reads one line from stdin: ``quit``, or a JSON object
``{"seed": n, "seconds": s}`` for a measured in-process run, or
``{"seed": n, "trace": true}`` for the traced run.  The result is printed
as one line ``result {json}``.  Nothing but ptlattice is imported before
``ready``, so the set-up time is the program's own.
"""

import sys

FAMILIES = {
    "scan": ("mdg6-open", "mdg6-w1", "mdg6-w2", "ec4", "ec4-strongbond", "ec4-recoupled"),
    "metric": ("ec4", "ec4-strongbond", "ec4-recoupled", "mdg6-w1"),
    "oracle": ("mdg6-open", "mdg6-w1", "mdg6-w2", "ec4", "ec4-strongbond", "ec4-recoupled"),
    "cli": ("ec4", "mdg6-w1", "mdg6-w2", "ec4-strongbond"),
}
USES_DEMO_CHAIN = {"scan", "cli"}
DEMO_DOC = "perfbench/demo-chain.yaml"


def set_up(workload: str, trace: bool):
    if workload == "cli" or trace:
        import ptlattice.cli  # noqa: F401
    import ptlattice

    names = FAMILIES["scan"] if trace else FAMILIES[workload]
    families = {name: ptlattice.get_family(name) for name in names}
    if trace or workload in USES_DEMO_CHAIN:
        demo = ptlattice.load_custom_model(DEMO_DOC)
        families[demo.name] = demo
    return ptlattice, families


def main() -> int:
    workload = sys.argv[1]
    trace = "--trace" in sys.argv[2:]
    pt, families = set_up(workload, trace)
    print("ready", flush=True)
    line = sys.stdin.readline().strip()
    if not line or line == "quit":
        return 0

    import json

    import runs

    params = json.loads(line)
    if params.get("trace"):
        result = runs.traced(workload, pt, families, params["seed"])
    else:
        result = runs.measured(workload, pt, families, params["seed"], params["seconds"])
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
