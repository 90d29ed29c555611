"""Observability: tracer, profiler, flight recorder, auditor.

Import the submodule you need (``from repro.obs import tracer``); the
package re-exports nothing.  What ``sim/engine.py`` imports --
:mod:`~repro.obs.ambient`, :mod:`~repro.obs.tracer`,
:mod:`~repro.obs.simprofile`, :mod:`~repro.obs.timeseries` and the
:mod:`~repro.obs.metrics` reader -- imports nothing from the simulation
stack, so there is no cycle.  All event timestamps are *simulated*
seconds -- never wall clock -- so traces, the flight recorder's counter
tracks among them, are as deterministic as the runs that produce them.
"""
