"""The bench-plane contract (`kivati bench run` / `kivati bench validate`).

Every bench plane is one module exposing four names:

- ``SCHEMA`` — the artifact's schema string;
- ``generate(smoke=False, ...)`` — runs the plane and returns the
  artifact dict; ``smoke`` picks the module's own CI-sized shape;
- ``validate(payload)`` — the problem list (empty = valid), gated on
  the module's own constants; ``payload["smoke"]`` picks the relaxed
  set, so an edited artifact cannot lower its own bar;
- ``render(payload)`` — the human-readable table.

:data:`PLANES` registers them; the committed artifact of plane ``P`` is
always ``BENCH_P.json``.  This module also holds the only code the
planes share: the structural preamble of every ``validate``
(:func:`check_schema`), the atomic artifact write, the host record and
the progress line long-running planes print to stderr.
"""

import importlib
import json
import os
import sys

#: plane name -> owning bench module (lazy import — bench modules are
#: heavy and validation must stay cheap)
PLANES = {
    "checker": "repro.bench.checkerbench",
    "conflict": "repro.bench.conflictbench",
    "fleet": "repro.bench.fleetbench",
    "fuzz": "repro.bench.fuzzbench",
    "obs": "repro.bench.obsbench",
    "service": "repro.bench.servicebench",
}


def plane_module(plane):
    return importlib.import_module(PLANES[plane])


def check_schema(payload, schema, required=()):
    """The structural preamble every bench ``validate()`` shares.

    Returns a problem list: non-dict payloads report exactly
    ``["payload is not an object"]`` (callers should return
    immediately), otherwise one problem per schema mismatch / missing
    top-level key.
    """
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    problems = []
    if payload.get("schema") != schema:
        problems.append("schema is %r, want %r"
                        % (payload.get("schema"), schema))
    for key in required:
        if key not in payload:
            problems.append("missing key %r" % key)
    return problems


def host():
    """The recording host, as artifacts store it (timing gates are
    conditioned on ``cpu_count``)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    return {"cpu_count": cpus, "pid_start_method_default": "spawn"}


def progress(message):
    """One progress line on stderr (stdout carries the rendered table)."""
    print(message, file=sys.stderr, flush=True)


def write_artifact(payload, path):
    """Write ``payload`` as canonical JSON to ``path`` atomically."""
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def known_schemas():
    """schema string -> bench module name, for dispatch by payload."""
    return {plane_module(plane).SCHEMA: PLANES[plane]
            for plane in sorted(PLANES)}


def validate_artifact(payload):
    """Validate any bench artifact by its ``schema`` field; returns a
    problem list (unknown/missing schema is itself a problem)."""
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    schema = payload.get("schema")
    module_name = known_schemas().get(schema)
    if module_name is None:
        return ["unknown schema %r (known: %s)"
                % (schema, ", ".join(sorted(known_schemas())))]
    return importlib.import_module(module_name).validate(payload)


def _load(path):
    """``(payload, problems)``: unreadable/unparseable files are a
    problem, not an exception."""
    try:
        with open(path) as f:
            return json.load(f), []
    except OSError as exc:
        return None, ["cannot read %s: %s" % (path, exc)]
    except ValueError as exc:
        return None, ["%s is not valid JSON: %s" % (path, exc)]


def validate_file(path):
    """Validate one artifact file."""
    payload, problems = _load(path)
    return problems or validate_artifact(payload)


def committed_artifacts(root="."):
    """The committed ``BENCH_*.json`` files under ``root``, sorted."""
    return sorted(name for name in os.listdir(root)
                  if name.startswith("BENCH_") and name.endswith(".json")
                  and os.path.isfile(os.path.join(root, name)))


def validate_committed(root="."):
    """Validate every committed artifact; returns an ordered
    ``{filename: problems}`` dict.  A committed artifact carries a
    plane's full-size claim, so one recorded as a smoke run is itself a
    problem (smoke artifacts pass ``validate`` on the relaxed gates)."""
    report = {}
    for name in committed_artifacts(root):
        payload, problems = _load(os.path.join(root, name))
        if not problems:
            problems = validate_artifact(payload)
            if isinstance(payload, dict) and payload.get("smoke"):
                problems.append("committed artifact is a smoke run")
        report[name] = problems
    return report


__all__ = ["PLANES", "check_schema", "committed_artifacts",
           "host", "known_schemas", "plane_module", "progress",
           "validate_artifact", "validate_committed", "validate_file",
           "write_artifact"]
