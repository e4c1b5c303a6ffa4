"""Repository benchmark: workloads, ledger and runner (see README.md)."""
