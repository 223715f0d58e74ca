"""CLI child for the cli_session workload: ``child.py LIMIT_BYTES [weylkit args...]``.

The child caps its own address space before importing anything heavy, so a
command that asks for too much memory fails with MemoryError (a failed
operation) instead of exhausting the machine.  With no weylkit arguments it
only imports the package, which times interpreter and numpy start-up.
"""

import resource
import sys


def main() -> None:
    limit = int(sys.argv[1])
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > limit:
        resource.setrlimit(resource.RLIMIT_AS, (min(limit, hard) if hard != resource.RLIM_INFINITY else limit, hard))
    argv = sys.argv[2:]
    if not argv:
        import weylkit  # noqa: F401

        return
    from weylkit.cli import main as weylkit_main

    weylkit_main(argv)


if __name__ == "__main__":
    main()
