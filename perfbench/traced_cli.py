"""Run `twoorigins.cli.run(argv)` with spans around the layer calls it makes.

Usage: python traced_cli.py SPANS_JSON ARG...

Times the import of twoorigins.cli and the run itself, wraps the layer
functions the CLI module imported and join's glue_auto (so spans are
recorded here, not in the program), writes the spans to SPANS_JSON and
exits with the CLI's code.
"""

import sys
import time

t_start = time.perf_counter()
import twoorigins.cli as cli  # noqa: E402  (timed import)
import twoorigins.join  # noqa: E402  (already loaded by the CLI)
t_imported = time.perf_counter()

import json  # noqa: E402
import types  # noqa: E402

import spans  # noqa: E402

#: Layer functions the CLI module calls, by the name it imported them under.
WRAPPED = {
    "germs": ("compose", "invert", "jet_of", "smoothness_at_zero", "germ_from_json",
              "germ_to_json", "germ_match"),
    "dline": ("same_structure", "psi", "diffeo_classes", "compose_diffeo",
              "classification_to_json"),
    "cosets": ("classify_wa_pair", "intersection_type", "double_cosets", "pm_double_cosets"),
    "join": ("chain_from_json", "collapse_chain", "collapse_to_json", "verify_ck_numeric"),
}


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    for layer, names in WRAPPED.items():
        spans.wrap_names(tracer, cli, layer, names)
    spans.wrap_names(tracer, twoorigins.join, "join", ("glue_auto",))
    # the CLI only calls from_json on these two classes
    cli.FiniteGroup = types.SimpleNamespace(
        from_json=spans.wrap(tracer, "cosets.group_build", cli.FiniteGroup.from_json))
    cli.NumericDiffeo = types.SimpleNamespace(
        from_json=spans.wrap(tracer, "join.NumericDiffeo.from_json", cli.NumericDiffeo.from_json))
    t0 = time.perf_counter()
    code = 1
    try:
        code = tracer.call("cli.run", cli.run, argv)
    finally:
        run_ms = 1000.0 * (time.perf_counter() - t0)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_ms": 1000.0 * (t_imported - t_start), "run_ms": run_ms,
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
