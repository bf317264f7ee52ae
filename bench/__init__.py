"""The repository's one benchmark: four workloads, one report schema.

Entry point: ``python3 bench/run.py`` (see ``bench/README.md``).
"""

#: BLAS thread pools ``run.py`` pins to one thread before numpy loads: with
#: OpenBLAS free to use both cores the same job ranged 7.7-14.3 s on the
#: box this was written on, pinned it ranged 8.5-9.0 s.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
