"""Run the blsbench CLI with span tracing installed.

    BENCH_TRACE_DIR=<dir> python3 bench/cli_launcher.py <blsbench arguments>

Every public function of every layer is wrapped before blsbench is
imported. Spans go to <dir>/spans-<pid>.jsonl when the command exits; pool
workers forked by the command write theirs after each task. The launcher
imports no more of blsbench, numpy or scipy than the CLI itself does.
"""

import time

_START = time.perf_counter()

import atexit  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def _flush(tracer, out_dir):
    chunk = tracer.take()
    if chunk["spans"]:
        tracing.write_chunks(os.path.join(out_dir, f"spans-{chunk['pid']}.jsonl"), [chunk])


def main():
    out_dir = os.environ["BENCH_TRACE_DIR"]
    tracer = tracing.Tracer().install()

    def in_forked_child():
        # A pool worker inherits the parent's open spans; start it clean and
        # flush whenever a task's outermost span ends, because worker
        # processes leave through os._exit and skip atexit.
        tracer.spans.clear()
        tracer.stack.clear()
        tracer.on_outermost = lambda: _flush(tracer, out_dir)

    os.register_at_fork(after_in_child=in_forked_child)
    atexit.register(_flush, tracer, out_dir)

    import blsbench.cli

    tracer.record("import blsbench.cli", _START, time.perf_counter())
    return blsbench.cli.main()


if __name__ == "__main__":
    sys.exit(main())
