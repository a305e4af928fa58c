"""Run one anisonl CLI command in this process, spawned by run.py.

    child.py run   -- CLI_ARGS...        the plain CLI, no tracing
    child.py trace TRACE.json -- CLI_ARGS...
                                         the CLI with every layer traced;
                                         spans and counts go to TRACE.json
    child.py setup CONFIG                import anisonl.cli and load the
                                         config, then print the monotonic
                                         clock (set-up probe)
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv):
    mode = argv[0]
    if mode == "setup":
        import anisonl.cli as cli
        cli.load_config(argv[1])
        print(repr(time.monotonic()), flush=True)
        return 0
    if mode == "run":
        import anisonl.cli as cli
        return cli.main(argv[argv.index("--") + 1:])
    if mode == "trace":
        from tracer import install
        tracer, patched = install()
        import anisonl.cli as cli
        try:
            return cli.main(argv[argv.index("--") + 1:])
        finally:
            with open(argv[1], "w") as fh:
                json.dump(dict(tracer.dump(), patched=patched), fh)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
