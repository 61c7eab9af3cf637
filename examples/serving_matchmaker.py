"""Game matchmaking through the serving layer (pool + scheduler + feeds).

A matchmaking service for a team game: squads of k=4 mutual friends.
The server holds one warm session per region graph in its
:class:`~repro.serve.pool.SessionPool`, a dynamic feed tracks the live
region as friendships form and break, and all solve traffic flows
through the in-process :class:`~repro.serve.client.Client` exactly as
NDJSON clients would over ``python -m repro serve``:

* **lobby ticks** — repeated ``solve`` requests over the live regions
  (warm after the first tick: the pool reuses node scores and
  orientations instead of recomputing them);
* **friendship churn** — ``feed_push`` traffic buffered into the
  batched dynamic-update engine, flushed by the feed's size policy;
* **priority lanes** — squad solves ride ``high`` while an analytics
  ``bounds`` query rides ``low`` and never delays matchmaking.

Run:  python examples/serving_matchmaker.py
"""

import numpy as np

from repro.graph.generators import powerlaw_cluster
from repro.serve import Client, Server

K = 4
TICKS = 3
CHURN_PER_TICK = 60


def main() -> None:
    rng = np.random.default_rng(29)
    regions = {
        "eu-west": powerlaw_cluster(1500, 10, 0.7, seed=31),
        "us-east": powerlaw_cluster(1200, 9, 0.7, seed=32),
    }

    with Server(workers=2, max_sessions=8, queue_limit=32) as server:
        client = Client(server)
        for name, graph in regions.items():
            reg = client.register_graph(name, graph)
            print(
                f"region {name}: {reg['n']} players, {reg['m']} friendships "
                f"({reg['fingerprint'][:14]}...)"
            )

        # The live region streams friendship churn through a feed;
        # batches of 32 go through the coalesced dynamic-update engine.
        feed = client.feed_open("eu-west", k=K, policy={"max_updates": 32})["feed"]
        print(f"matchmaker feed open: {feed}, initial squads="
              f"{client.feed_solution(feed, include_cliques=False)['size']}\n")

        edges = sorted(regions["eu-west"].edges())
        broken: list[tuple[int, int]] = []
        for tick in range(1, TICKS + 1):
            # Friendship churn: break some edges, reconcile older breaks.
            updates = []
            picks = rng.choice(len(edges), size=CHURN_PER_TICK, replace=False)
            for index in picks:
                u, v = edges[index]
                updates.append(("delete", u, v))
            while broken:
                updates.append(("insert", *broken.pop()))
            broken = [(u, v) for op, u, v in updates if op == "delete"]
            pushed = client.feed_push(feed, updates)
            squads = client.feed_solution(feed, include_cliques=False)["size"]

            # Matchmaking tick: high-priority squad solves per region,
            # low-priority analytics riding the same scheduler.
            lobby = {
                name: client.solve(name, K, priority="high",
                                   include_cliques=False)["size"]
                for name in regions
            }
            analytics = client.bounds("us-east", K, priority="low")
            print(
                f"tick {tick}: churn={len(updates)} "
                f"(flushed={pushed['flushed']}) live-squads={squads} | "
                f"lobby {lobby} | OPT<={analytics['best']} (us-east)"
            )

        stats = client.stats()
        pool, sched = stats["pool"], stats["scheduler"]
        print(
            f"\npool: {pool['sessions']} sessions, "
            f"{pool['hits']} hits / {pool['misses']} misses "
            f"({pool['bytes'] / 1e6:.1f} MB resident)"
        )
        print(
            f"scheduler: {sched['completed']} completed, "
            f"{sched['shed_overload']} shed, workers={sched['workers']}"
        )
        final = client.feed_close(feed)
        print(f"feed closed: final live squads={final['final_size']}")


if __name__ == "__main__":
    main()
