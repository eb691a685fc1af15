"""Work count of the topology build: no ``ipaddress`` object on the path.

Prefixes and node addresses are ints inside :mod:`repro.topology.prefix`;
the ``ipaddress`` objects are built only when a caller asks for one.
Building the paper topology and Figure 4's hijack curves asks for none,
so a construction on that path is work no artifact reads.  The count
is the floor for that speed-up, stated without a host-dependent time.
"""

from __future__ import annotations

import ipaddress

from repro.analysis.hijack import hijack_curve
from repro.experiments.figure4 import FIGURE4_ASES
from repro.topology.builder import build_paper_topology


def count_constructions(monkeypatch):
    counts = {"IPv4Network": 0, "IPv4Address": 0}
    for cls in (ipaddress.IPv4Network, ipaddress.IPv4Address):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_counter_sees_constructions(monkeypatch):
    counts = count_constructions(monkeypatch)
    ipaddress.IPv4Network("10.0.0.0/24").network_address + 1
    assert counts == {"IPv4Network": 1, "IPv4Address": 2}


def test_build_and_figure4_curves_make_no_address_objects(monkeypatch):
    counts = count_constructions(monkeypatch)
    topo = build_paper_topology(seed=0, scale=0.2)
    curves = [hijack_curve(topo.pool(asn)) for asn in FIGURE4_ASES]
    assert topo.num_nodes > 2000
    assert all(curve.total_nodes > 0 for curve in curves)
    assert counts == {"IPv4Network": 0, "IPv4Address": 0}
