"""Maximum-size allocator (Section 2.3).

Computes a *maximum* bipartite matching via the Hopcroft-Karp algorithm
(repeated phases of BFS layering plus DFS augmentation along shortest
augmenting paths).  The paper uses a maximum-size allocator purely as a
quality yardstick: it provides no fairness and is too complex/iterative
for single-cycle NoC allocation, but upper-bounds the grant count any
allocator can achieve, defining the denominator of the *matching
quality* metric (Section 3.1).
"""

from __future__ import annotations

from collections import deque
from typing import List

from .base import Allocator, Matrix, as_request_matrix

__all__ = ["MaximumSizeAllocator", "maximum_matching_size", "hopcroft_karp"]

_INF = float("inf")


def hopcroft_karp(adjacency: List[List[int]], num_right: int) -> List[int]:
    """Maximum bipartite matching.

    Parameters
    ----------
    adjacency:
        ``adjacency[u]`` lists the right-side vertices adjacent to left
        vertex ``u``.
    num_right:
        Number of right-side vertices.

    Returns
    -------
    list[int]
        ``match_left`` where ``match_left[u]`` is the matched right
        vertex for ``u`` or ``-1``.
    """
    num_left = len(adjacency)
    match_left = [-1] * num_left
    match_right = [-1] * num_right
    dist = [0.0] * num_left

    def bfs() -> bool:
        queue = deque()
        for u in range(num_left):
            if match_left[u] == -1:
                dist[u] = 0.0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_right[v]
                if w == -1:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adjacency[u]:
            w = match_right[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = _INF
        return False

    while bfs():
        for u in range(num_left):
            if match_left[u] == -1:
                dfs(u)
    return match_left


def _adjacency(req: List[List[bool]]) -> List[List[int]]:
    return [[j for j, r in enumerate(row) if r] for row in req]


def maximum_matching_size(requests: Matrix) -> int:
    """Size of a maximum matching of a boolean request matrix."""
    req = as_request_matrix(requests)
    match_left = hopcroft_karp(_adjacency(req), len(req[0]) if req else 0)
    return sum(1 for v in match_left if v != -1)


class MaximumSizeAllocator(Allocator):
    """Stateless allocator returning a maximum matching.

    Deterministic for a given request matrix; inherently unfair (it will
    starve individual requesters to maximize total throughput), exactly
    as Section 2.3 cautions.
    """

    def allocate(self, requests: Matrix) -> List[List[bool]]:
        req = self._validated(requests)
        match_left = hopcroft_karp(_adjacency(req), self.num_resources)
        grants = self._no_grants()
        for u, v in enumerate(match_left):
            if v != -1:
                grants[u][v] = True
        return grants

    def reset(self) -> None:  # stateless
        return None
