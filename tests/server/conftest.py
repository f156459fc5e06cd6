"""Server tests touch process-global telemetry; restore it afterwards."""

import threading

import pytest

from repro import telemetry

# Upper bound on how long a held job waits for its release; past it the
# job fails loudly instead of hanging a server's drain forever.
HOLD_TIMEOUT_S = 30.0


@pytest.fixture(autouse=True)
def restore_telemetry():
    was_enabled = telemetry.enabled()
    previous = telemetry.registry()
    yield
    telemetry.set_registry(previous)
    if was_enabled:
        telemetry.enable()
    else:
        telemetry.disable()


def tiny_spec(name="tiny", seed=7, homes=1, duration_s=25.0,
              attack=True, xlf=False, activity=True):
    """A small, fast ScenarioSpec dict for job submission."""
    from repro.core import XlfConfig
    from repro.scenarios import AttackSpec, HomeSpec, ScenarioSpec

    spec = ScenarioSpec(
        name=name,
        homes=[HomeSpec(activity=activity,
                        activity_rng=f"resident-{i}" if homes > 1 else None)
               for i in range(homes)],
        attacks=([AttackSpec(attack="mirai-botnet", home=i,
                             params={"run_ddos": False})
                  for i in range(homes)] if attack else []),
        xlf=XlfConfig.full() if xlf else None,
        seed=seed,
        warmup_s=5.0,
        duration_s=duration_s,
        collect_features=True,
    )
    return spec.to_dict()


class JobHold:
    """Parks chosen jobs on their worker thread until released."""

    def __init__(self, run_spec):
        self._run_spec = run_spec
        self._names = set()
        self._released = threading.Event()

    def hold(self, name):
        """Hold every job whose spec is named ``name``."""
        self._names.add(name)

    def release(self):
        self._released.set()

    def run_spec(self, spec, *args, **kwargs):
        if spec.name in self._names:
            if not self._released.wait(HOLD_TIMEOUT_S):
                raise RuntimeError(
                    f"held job {spec.name!r} was never released")
        return self._run_spec(spec, *args, **kwargs)


@pytest.fixture()
def hold_jobs(monkeypatch):
    """Keep named jobs ``running`` on their worker until ``release()``.

    Tests of priority, cancellation and the 409 on an unfinished result
    need "a long job" that is still busy when the next request lands.
    A tiny spec runs in milliseconds once the prototype-clone cache is
    warm, about as long as an HTTP round trip, so a long sim duration
    cannot be left to wall-clock luck.  The hold wraps the ``run_spec``
    that ``FleetService._execute`` calls: a held job is already in
    state ``running`` and parks before its simulation starts, and the
    simulation itself is untouched once released.  Teardown always
    releases, so a failed assertion cannot hang a server's drain.
    """
    import repro.server.service as service_module

    gate = JobHold(service_module.run_spec)
    monkeypatch.setattr(service_module, "run_spec", gate.run_spec)
    try:
        yield gate
    finally:
        gate.release()
