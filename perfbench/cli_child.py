"""One traced CLI invocation: `python -m bufchem` with spans around its layers.

    python perfbench/cli_child.py SPANS_JSON <bufchem arguments...>

Times `import bufchem.cli`, then runs bufchem.cli.main with
parse_config and io.write_trajectory_csv wrapped in spans, and writes
the spans to SPANS_JSON.  The exit code is main's.
"""
import json
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    spans = []   # [name, start, end, parent index, item, attributes]

    t0 = time.perf_counter()
    import bufchem.cli as cli
    from bufchem import io
    spans.append(["cli.import", t0, time.perf_counter(), None, None, {}])

    def wrap(owner, attr, name):
        original = getattr(owner, attr)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spans.append([name, start, time.perf_counter(), "main",
                              None, {}])
        setattr(owner, attr, timed)

    wrap(cli, "parse_config", "config.parse_config")
    wrap(io, "write_trajectory_csv", "io.write_trajectory_csv")
    t0 = time.perf_counter()
    code = cli.main(argv)
    t1 = time.perf_counter()
    for s in spans:
        if s[3] == "main":
            s[3] = len(spans)
    spans.append(["cli.main", t0, t1, None, None, {"command": argv[0]}])
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
