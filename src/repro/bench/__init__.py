"""Benchmark harness: one runner per table/figure of the paper, in
:mod:`repro.bench.experiments`.

=============  ========================================  =====================
Experiment     Paper result                              Runner
=============  ========================================  =====================
Fig. 10(a,b)   micro-benchmark: view scan vs join        :func:`run_fig10`
Fig. 11        row-locking overhead vs lock count        :func:`run_fig11`
Fig. 12        TPC-W join queries across 5 systems       :func:`run_fig12`
Fig. 13        mechanism matrix                          :func:`run_fig13`
Fig. 14        TPC-W write statements across 5 systems   :func:`run_fig14`
Table I        qualitative comparison                    :func:`run_table1`
Table II       sum of all statement response times       :func:`run_table2`
Table III      database sizes                            :func:`run_table3`
=============  ========================================  =====================

Each suite, paper figure or extension, is one ``Suite`` record in
:mod:`repro.bench.suites`; ``python -m repro.bench --scale 200``
regenerates everything and prints the paper-style rows.
"""
