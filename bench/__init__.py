"""The repo's benchmark: four workloads, a reference oracle, a per-layer ledger.

``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` is the
contract entry point named in ``BENCHMARK.json``; ``python3 -m bench
--seed N`` runs every workload in its own subprocess and prints the full
report.  See ``bench/README.md`` for why each workload exists and which
end-to-end number each layer metric is expected to move.

The benchmark reaches the system only through its public surface (listed
in the README); everything here lives outside ``src/`` on purpose, so a
later change to the program never edits the ruler it is measured with.
"""
