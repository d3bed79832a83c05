"""Grid worlds backing the geometry externals.

A world is an ASCII rectangle: '#' is a blocked cell, '.' is free, a
digit d names the landmark L<d>, and a letter names itself.  Landmark
cells are free.  Connectivity is 4-neighbour; distances come from
breadth-first search and are memoized per source landmark.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .grounding import ExternalRegistry


class WorldError(Exception):
    pass


@dataclass
class GridWorld:
    width: int
    height: int
    blocked: frozenset[tuple[int, int]]
    landmarks: dict[str, tuple[int, int]]  # name -> (x, y)
    _dist_cache: dict[str, dict[tuple[int, int], int]] = field(
        default_factory=dict, repr=False, compare=False)

    def is_free(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height and (x, y) not in self.blocked

    def neighbors(self, x: int, y: int):
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if self.is_free(x + dx, y + dy):
                yield x + dx, y + dy

    def _distances_from(self, name: str) -> dict[tuple[int, int], int]:
        cached = self._dist_cache.get(name)
        if cached is not None:
            return cached
        start = self.landmarks[name]
        dist = {start: 0}
        queue = deque([start])
        while queue:
            cell = queue.popleft()
            d = dist[cell] + 1
            for nxt in self.neighbors(*cell):
                if nxt not in dist:
                    dist[nxt] = d
                    queue.append(nxt)
        self._dist_cache[name] = dist
        return dist

    def time_estimate(self, src: str, dst: str) -> int | None:
        """Shortest 4-connected path length between two landmarks, or None
        when no path exists."""
        if src not in self.landmarks or dst not in self.landmarks:
            raise WorldError(f"unknown landmark in time_estimate({src}, {dst})")
        return self._distances_from(src).get(self.landmarks[dst])

    def path_exists(self, src: str, dst: str) -> bool:
        return self.time_estimate(src, dst) is not None


def parse_world(text: str, source: str = "<world>") -> GridWorld:
    rows = [line for line in text.splitlines() if line.strip() != ""]
    if not rows:
        raise WorldError(f"{source}: empty world")
    width = max(len(r) for r in rows)
    blocked = set()
    landmarks: dict[str, tuple[int, int]] = {}
    for y, row in enumerate(rows):
        for x in range(width):
            ch = row[x] if x < len(row) else "."
            if ch in (".", " "):
                continue
            if ch == "#":
                blocked.add((x, y))
            elif ch.isdigit():
                name = f"L{ch}"
                if name in landmarks:
                    raise WorldError(f"{source}: landmark {name} appears twice")
                landmarks[name] = (x, y)
            elif ch.isalpha():
                if ch in landmarks:
                    raise WorldError(f"{source}: landmark {ch} appears twice")
                landmarks[ch] = (x, y)
            else:
                raise WorldError(f"{source}: bad cell {ch!r} at row {y + 1}, column {x + 1}")
    return GridWorld(width, len(rows), frozenset(blocked), landmarks)


def load_world(path) -> GridWorld:
    with open(path, encoding="utf-8") as fh:
        return parse_world(fh.read(), source=str(path))


def registry_for(world: GridWorld) -> ExternalRegistry:
    """Registry exposing pathExists/2 and timeEstimate/2 over the world."""
    reg = ExternalRegistry()
    reg.register("pathExists", 2, world.path_exists)
    reg.register("timeEstimate", 2, world.time_estimate)
    return reg
