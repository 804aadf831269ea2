#!/usr/bin/env python
"""Elastic trend: an orchestrator widens a parallel region live.

The README's quickstart.  The trade feed (60 trades/s) fans into a
parallel region of rate-limited analytics workers (20 trades/s per
channel).  The orchestrator starts the region at one channel, hears
``channel_congested`` events from the metric poll, and widens the region
one channel at a time until the workers keep up: 60 / 20 = 3 channels.
No tuple is lost or reordered across the rescales.

Expected output::

    {'analytics': 3}

Run:  python examples/elastic_trend.py
"""

from repro import ManagedApplication, OrcaDescriptor, SystemS
from repro.apps.elastic_trend import (
    AutoScalingTrendOrchestrator, build_elastic_trend_application,
)

system = SystemS(hosts=10)
app = build_elastic_trend_application(width=1, max_width=4)
service = system.submit_orchestrator(OrcaDescriptor(
    name="Elastic",
    logic=AutoScalingTrendOrchestrator,
    applications=[ManagedApplication(name=app.name, application=app)],
))
system.run_for(120.0)                     # simulated seconds
print(service.parallel_regions(service.logic.job_id))  # {'analytics': 3}
