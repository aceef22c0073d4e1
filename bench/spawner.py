"""Starts the cli_cold workload's CLI processes from a small process.

On Linux a process's peak RSS (``ru_maxrss``) starts at its parent's
resident size when it was forked (vfork and posix_spawn included), so a CLI
process started by the benchmark process itself reports the benchmark's
peak, not its own. This process imports almost nothing and stays smaller
than any CLI process, so the peak RSS it reports for each child is the
child's own.

Protocol, one line each way. The parent writes a JSON list
``[argv, stdout_path, stderr_path]``; the spawner runs argv with standard
input from /dev/null and standard output and error into those files, waits
for it, and replies ``<exit code> <peak RSS in KiB>``. It exits at the end
of its input. The children inherit its environment and working directory.
"""
import json
import os
import sys


def main() -> None:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        argv, out_path, err_path = json.loads(line)
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        sys.stdout.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
