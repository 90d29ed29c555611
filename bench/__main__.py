"""``python -m bench {run,compare}`` (``_worker`` is the per-workload child)."""

from __future__ import annotations

import sys

from bench import SRC


def main() -> int:
    commands = ("run", "compare", "_worker")
    if len(sys.argv) < 2 or sys.argv[1] not in commands:
        print("usage: python -m bench {run,compare} [options]  (--help per command)",
              file=sys.stderr)
        return 2
    command, argv = sys.argv[1], sys.argv[2:]
    if command == "compare":
        from bench.compare import main as compare_main

        return compare_main(argv)
    if command == "run":
        from bench.runner import main as run_main

        return run_main(argv)
    # The measured program is the checkout's own src/, never an installed copy.
    sys.path.insert(0, SRC)
    from bench.worker import main as worker_main

    return worker_main(argv)


if __name__ == "__main__":
    sys.exit(main())
