"""Union-find over integer keys, used for orbit and component counting."""

from __future__ import annotations


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.components = n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.components -= 1
        return ra

    def union_pairs(self, flat: list[int]) -> int:
        """Union flat[0] with flat[1], flat[2] with flat[3], and so on, in one
        local loop (union by size, finds by path halving); returns the number
        of merges."""
        parent, size = self.parent, self.size
        merges = 0
        pairs = iter(flat)
        for a, b in zip(pairs, pairs):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
                merges += 1
        self.components -= merges
        return merges
