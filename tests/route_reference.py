"""Walked mesh routes: the test-only reference for the closed-form rows.

Mesh route rows split each flow evenly between the XY route and, where it
differs, the YX route, the two O1TURN route classes that wafer NoCs balance
load across.  ``MeshTopology.dimension_order_links`` builds both in closed
form, and ``MeshTopology.route`` walks the XY one.  This module keeps the
walk that took either dimension order link by link:

* :func:`walk` is the ``rows_first`` (XY) or columns-first (YX) walk;
* :func:`route_alternate` is the YX path, memoized on the topology as it
  was when it was a method.

The tests hold the closed-form rows and the seed phase loop to these.
"""

from repro.memo import instance_memo
from repro.topology.base import Link
from repro.topology.mesh import Coord, MeshTopology


def walk(topology: MeshTopology, src: int, dst: int, rows_first: bool) -> list[Link]:
    path: list[Link] = []
    here = topology.coord_of(src)
    target = topology.coord_of(dst)

    def step_rows():
        nonlocal here
        while here.x != target.x:
            step = 1 if target.x > here.x else -1
            nxt = Coord(here.x + step, here.y)
            path.append(topology.link(topology.device_at(here), topology.device_at(nxt)))
            here = nxt

    def step_cols():
        nonlocal here
        while here.y != target.y:
            step = 1 if target.y > here.y else -1
            nxt = Coord(here.x, here.y + step)
            path.append(topology.link(topology.device_at(here), topology.device_at(nxt)))
            here = nxt

    if rows_first:
        step_rows()
        step_cols()
    else:
        step_cols()
        step_rows()
    return path


@instance_memo("_alternate_route_memo")
def _alternate_route_cached(topology: MeshTopology, src: int, dst: int) -> tuple[Link, ...]:
    return tuple(walk(topology, src, dst, rows_first=False))


def route_alternate(topology: MeshTopology, src: int, dst: int) -> list[Link]:
    """The YX (columns-first) path — the second O1TURN route class.

    Wafer NoCs balance load across the two dimension orders; the phase
    simulator splits each flow evenly between ``route`` and this path.
    """
    return list(_alternate_route_cached(topology, src, dst))
