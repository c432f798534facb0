"""perfbench: the wall-clock benchmark of the holistic-indexing kernel.

One closed-loop driver, seven workloads that each isolate a layer,
end-to-end metrics from an untraced run and per-layer metrics from a
second, traced run of the same inputs.  Everything here drives the
public API of :mod:`repro` only; nothing under ``src/`` knows this
package exists.  See ``perfbench/README.md``.
"""
