"""Write top-horizon CNFs through causalplan's command line.

    python3 bench/export_cnf.py '[["plan", "dom.cp", "prob.cp", "--solver", "dimacs-out", "out.cnf"]]'

Calls causalplan.cli.main once per argument list, in one interpreter,
and exits 1 if any call does not return 0.  run.py starts it in a child
process so the export stays out of the benchmark's own peak memory.
"""

import json
import sys

from causalplan.cli import main

if __name__ == "__main__":
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
    sys.exit(0 if all(c == 0 for c in codes) else 1)
