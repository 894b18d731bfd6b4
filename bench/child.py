"""One benchmark run: a fresh interpreter that calls ``mscoupling.cli.main``.

Usage::

    PYTHONPATH=src python3 bench/child.py RESULT.json TRACE [ARG ...]

``TRACE`` is 0, 1 (wrap the layer boundaries, see ``spans.py``) or
``setup`` (import the CLI, report when it was ready and exit).  A timed
run also samples the processor's pace while ``main`` runs (``pace.py``).  ``main`` is
called explicitly: ``python -m mscoupling.cli`` exits 0 without doing
anything, which the output check would report as a failed run.
"""

import time

import mscoupling.cli  # set-up ends once the CLI is importable

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import pace  # noqa: E402


def _peak_rss_kb() -> int:
    return max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def _cpu_s() -> float:
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def main() -> None:
    result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    result = {"ready": READY}
    if mode != "setup":
        tracer = None
        if mode == "1":
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        cpu = _cpu_s()
        with pace.Pace() as pacer:
            start = time.perf_counter()
            if tracer is None:
                code = mscoupling.cli.main(argv)
            else:
                code = tracer.run_root("cli.main", mscoupling.cli.main, argv)
            wall = time.perf_counter() - start
        result.update(
            code=code,
            wall_s=wall,
            pace_loop_s=pacer.loop_s(),
            pace_samples=len(pacer.samples),
            cpu_s=_cpu_s() - cpu,
            peak_rss_kb=_peak_rss_kb(),
            api_names=len(mscoupling.__all__),
        )
        if tracer is not None:
            result["trace"] = tracer.dump()
    sys.stdout.flush()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
