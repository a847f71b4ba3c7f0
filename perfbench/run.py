#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (build output goes to stderr), then
runs it with the same arguments; its standard output, whose last line
is the JSON result, passes through unchanged.  See perfbench/README.md.
"""

import os
import subprocess
import sys

# At --seconds 30, an untraced run ends within 55 s and a traced
# profile-registry run takes 65-130 s, depending on how busy the host is.
# This bounds a hung run, above the longest normal one.
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: run from the root of an hbbp checkout "
            "(no dune-project or lib/ here)\n"
        )
        return 2
    # Environment overrides of the library (HBBP_JOBS, HBBP_ENGINE,
    # HBBP_TRACE, ...) would change what is measured; the shared dune
    # cache would write outside the checkout.
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("HBBP_") and k != "DUNE_BUILD_DIR"
    }
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    try:
        run = subprocess.run(
            ["./_build/default/perfbench/main.exe", *sys.argv[1:]],
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
