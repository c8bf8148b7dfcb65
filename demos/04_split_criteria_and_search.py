# Compare the three split criteria (variance, low-rank approximation
# error, low-rank regression error) and the three search strategies
# (exhaustive, leverage-score sampling, branch-and-bound).

import time

import numpy as np

from tensortree import (
    AlsConfig,
    LeafModelSpec,
    SearchStrategy,
    SplitCriterion,
    find_best_split,
    variance_matrix,
)

rng = np.random.default_rng(3)
n = 80
x = rng.uniform(-1, 1, size=(n, 4, 4))
# response driven by coordinate (2, 1)
y = np.where(x[:, 2, 1] <= 0.2, -3.0, 3.0) + rng.normal(0, 0.3, n)

als = AlsConfig(max_iterations=10)
criteria = {
    "sse": SplitCriterion(kind="sse"),
    "lae": SplitCriterion(kind="lae", split_rank=2, als=als),
    "lre": SplitCriterion(kind="lre", split_rank=2, als=als),
}
leaf = LeafModelSpec(kind="cp", rank=2, als=als)

print("per-coordinate variance of the inputs:")
print(np.round(variance_matrix(x), 3))

for name, crit in criteria.items():
    t0 = time.perf_counter()
    ev = find_best_split(x, y, crit, SearchStrategy(), leaf)
    dt = time.perf_counter() - t0
    print(f"{name}: chose {ev.rule.coords} at {ev.rule.threshold:+.3f} "
          f"loss={ev.loss:.4f} ({dt * 1e3:.1f} ms)")

# The samplers trade optimality for speed; with tau=1 / xi=0 they agree
# with the exhaustive scan exactly.
crit = criteria["lre"]
full = find_best_split(x, y, crit, SearchStrategy(), leaf)
for tau in (1.0, 0.5, 0.25):
    ev = find_best_split(x, y, crit, SearchStrategy(kind="leverage", tau=tau, seed=7), leaf)
    print(f"leverage tau={tau}: {ev.rule.coords} loss={ev.loss:.4f} "
          f"(exhaustive loss {full.loss:.4f})")
for xi in (0, 1, 3):
    ev = find_best_split(x, y, crit, SearchStrategy(kind="bb", xi=xi), leaf)
    print(f"branch-and-bound xi={xi}: {ev.rule.coords} loss={ev.loss:.4f}")

# Mean-value mode scans one threshold per coordinate instead of every
# observed value: much cheaper, close in quality here.
mean_crit = SplitCriterion(kind="lre", split_rank=2, value_mode="mean", als=als)
t0 = time.perf_counter()
ev = find_best_split(x, y, mean_crit, SearchStrategy(), leaf)
print(f"mean-value lre: {ev.rule.coords} loss={ev.loss:.4f} "
      f"({(time.perf_counter() - t0) * 1e3:.1f} ms)")
