"""The four workloads (see ``bench/README.md``)."""
