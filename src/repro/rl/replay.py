"""Experience replay over preallocated NumPy ring arrays.

Stores ``(s, a, r, s', done, next_mask)`` transitions column-wise in
fixed-capacity ring arrays and samples minibatches with one
fancy-indexing gather per column — no per-transition Python objects,
no per-sample ``np.stack``. The next-state action mask is kept
alongside the transition because in the co-scheduling environment the
valid-template set shrinks as the window drains — the double-DQN
target must not bootstrap through an action that is illegal in ``s'``.

Array shapes are fixed by the first ``push`` (the state/mask widths of
one environment family never change mid-training); pushing a transition
with different widths afterwards is an error, not a silent reshape.

Rows are allocated geometrically (doubling from a small block up to
``capacity``) rather than eagerly: a default 50k-transition buffer over
a ~200-wide state would otherwise fault in ~160 MB of zero pages up
front, which short training runs never touch. The ring can only wrap
once allocation has reached ``capacity``, so the growth path never
copies a wrapped buffer.

Two samplers share the ring storage:

* :class:`ReplayBuffer` — uniform sampling (the paper's setup);
* :class:`PrioritizedReplayBuffer` — proportional prioritized replay
  (Schaul et al. 2016) over a seeded array-backed :class:`SumTree`,
  the ``MemoryPER`` construction: priorities ``(|td| + eps)^alpha``,
  stratified sampling over equal probability-mass segments, and
  annealed importance-sampling weights. The hierarchy's joint trainer
  opts into it for the placement level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import DTypeLike

from repro.errors import ConfigurationError

__all__ = [
    "Transition",
    "Batch",
    "ReplayBuffer",
    "SumTree",
    "PrioritizedReplayBuffer",
]

#: Rows allocated on the first push (grown geometrically thereafter).
_INITIAL_ALLOC = 1024


@dataclass(frozen=True)
class Transition:
    """One stored interaction (a row view for inspection/tests; the
    buffer itself holds columns)."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool
    next_mask: np.ndarray


@dataclass
class Batch:
    """A stacked minibatch (column arrays)."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray
    next_masks: np.ndarray

    def __len__(self) -> int:
        return len(self.actions)


class ReplayBuffer:
    """Fixed-capacity FIFO transition store with uniform sampling."""

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity <= 0:
            raise ConfigurationError("replay capacity must be positive")
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._size = 0
        self._next = 0
        # Columns are allocated lazily on the first push, when the
        # state/mask widths are known.
        self._states: np.ndarray | None = None
        self._actions: np.ndarray | None = None
        self._rewards: np.ndarray | None = None
        self._next_states: np.ndarray | None = None
        self._dones: np.ndarray | None = None
        self._next_masks: np.ndarray | None = None

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self._size == self.capacity

    def __getitem__(self, i: int) -> Transition:
        """The ``i``-th stored transition, oldest first (copies)."""
        if not -self._size <= i < self._size:
            raise IndexError(f"transition index {i} out of range [0, {self._size})")
        if i < 0:
            i += self._size
        # Oldest entry sits at the write head once the ring has wrapped.
        j = (self._next + i) % self.capacity if self.full else i
        return Transition(
            state=self._states[j].copy(),
            action=int(self._actions[j]),
            reward=float(self._rewards[j]),
            next_state=self._next_states[j].copy(),
            done=bool(self._dones[j]),
            next_mask=self._next_masks[j].copy(),
        )

    # ------------------------------------------------------------------
    @property
    def _allocated(self) -> int:
        return 0 if self._actions is None else self._actions.shape[0]

    def _ensure_capacity(self, n_more: int, state_dim: int, mask_dim: int) -> None:
        """Grow the column arrays to hold ``n_more`` additional rows.

        Growth doubles from ``_INITIAL_ALLOC`` up to ``capacity``; while
        allocation is below capacity the ring has never wrapped
        (``_next == _size``), so the live rows are exactly the prefix
        and a plain prefix copy preserves them.
        """
        allocated = self._allocated
        needed = min(self.capacity, self._size + n_more)
        if 0 < allocated >= needed:
            return
        new_alloc = min(
            self.capacity,
            max(needed, 2 * allocated, min(self.capacity, _INITIAL_ALLOC)),
        )

        def grow(
            old: np.ndarray | None, shape: tuple[int, ...],
            dtype: DTypeLike,
        ) -> np.ndarray:
            new = np.zeros(shape, dtype=dtype)
            if old is not None and self._size:
                new[: self._size] = old[: self._size]
            return new

        self._states = grow(self._states, (new_alloc, state_dim), np.float64)
        self._actions = grow(self._actions, (new_alloc,), np.int64)
        self._rewards = grow(self._rewards, (new_alloc,), np.float64)
        self._next_states = grow(
            self._next_states, (new_alloc, state_dim), np.float64
        )
        self._dones = grow(self._dones, (new_alloc,), bool)
        self._next_masks = grow(self._next_masks, (new_alloc, mask_dim), bool)

    def push(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool,
        next_mask: np.ndarray,
    ) -> None:
        """Append a transition, evicting the oldest when full."""
        state = np.asarray(state, dtype=np.float64).ravel()
        next_state = np.asarray(next_state, dtype=np.float64).ravel()
        next_mask = np.asarray(next_mask, dtype=bool).ravel()
        if self._states is not None and state.shape[0] != self._states.shape[1]:
            raise ConfigurationError(
                f"state width {state.shape[0]} does not match the buffer's "
                f"{self._states.shape[1]}"
            )
        self._ensure_capacity(1, state.shape[0], next_mask.shape[0])
        i = self._next
        self._states[i] = state
        self._actions[i] = int(action)
        self._rewards[i] = float(reward)
        self._next_states[i] = next_state
        self._dones[i] = bool(done)
        self._next_masks[i] = next_mask
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def _check_batch(self, batch_size: int) -> None:
        """Reject undersized/oversized draws with a clear error instead
        of a numpy crash or a silent with-replacement fallback."""
        if batch_size <= 0:
            raise ConfigurationError("batch size must be positive")
        if self._size == 0:
            raise ConfigurationError("cannot sample from an empty buffer")
        if batch_size > self._size:
            raise ConfigurationError(
                f"cannot sample {batch_size} transitions from a buffer "
                f"holding {self._size}; wait for warm-up or shrink the batch"
            )

    def _gather(self, idx: np.ndarray) -> Batch:
        assert self._states is not None  # _check_batch guarantees pushes
        assert self._actions is not None
        assert self._rewards is not None
        assert self._next_states is not None
        assert self._dones is not None
        assert self._next_masks is not None
        return Batch(
            states=self._states[idx],
            actions=self._actions[idx],
            rewards=self._rewards[idx],
            next_states=self._next_states[idx],
            dones=self._dones[idx],
            next_masks=self._next_masks[idx],
        )

    def sample(self, batch_size: int) -> Batch:
        """Uniformly sample ``batch_size`` transitions without
        replacement across draws of the same call."""
        self._check_batch(batch_size)
        idx = self._rng.choice(self._size, size=batch_size, replace=False)
        return self._gather(idx)

    def clear(self) -> None:
        """Empty the buffer, resetting the write cursor.

        The cursor reset is what makes a cleared-and-refilled buffer
        reproducible: the same pushes land on the same rows, so a later
        ``sample`` gathers the same transitions. The sampling RNG is
        deliberately *not* rewound — it is independent of where rows
        are written; reseed by constructing a fresh buffer when the
        draw sequence itself must restart.
        """
        self._size = 0
        self._next = 0


# ----------------------------------------------------------------------
# prioritized replay (Schaul et al. 2016, the MemoryPER construction)
# ----------------------------------------------------------------------
class SumTree:
    """Array-backed binary sum tree over per-leaf priorities.

    Leaves hold the (already exponentiated) priorities of the replay
    rows; internal nodes hold subtree sums, so total mass is O(1) and
    both point updates and inverse-CDF lookups are O(log capacity).
    The leaf array is padded to the next power of two; padding leaves
    keep zero priority and are therefore never selected.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError("sum tree capacity must be positive")
        self.capacity = capacity
        self._leaves = 1 << (capacity - 1).bit_length()
        # 1-based heap layout: node i has children 2i and 2i+1; leaf j
        # of the logical array lives at node _leaves + j.
        self._nodes = np.zeros(2 * self._leaves, dtype=np.float64)

    @property
    def total(self) -> float:
        """Sum of all leaf priorities."""
        return float(self._nodes[1])

    def get(self, leaf: int) -> float:
        if not 0 <= leaf < self.capacity:
            raise ConfigurationError(f"leaf {leaf} out of range")
        return float(self._nodes[self._leaves + leaf])

    def update(self, leaf: int, priority: float) -> None:
        """Set one leaf's priority and repair the sums above it."""
        if not 0 <= leaf < self.capacity:
            raise ConfigurationError(f"leaf {leaf} out of range")
        if priority < 0 or not np.isfinite(priority):
            raise ConfigurationError("priorities must be finite and >= 0")
        i = self._leaves + leaf
        self._nodes[i] = priority
        i >>= 1
        while i >= 1:
            self._nodes[i] = self._nodes[2 * i] + self._nodes[2 * i + 1]
            i >>= 1

    def find(self, mass: float) -> int:
        """The leaf whose cumulative-priority interval contains ``mass``.

        Standard inverse-CDF descent: go left while the left subtree
        holds at least ``mass``, else subtract it and go right.
        """
        i = 1
        while i < self._leaves:
            left = 2 * i
            if mass < self._nodes[left] or self._nodes[left + 1] <= 0.0:
                i = left
            else:
                mass -= self._nodes[left]
                i = left + 1
        return i - self._leaves

    def clear(self) -> None:
        self._nodes[:] = 0.0


class PrioritizedReplayBuffer(ReplayBuffer):
    """Proportional prioritized replay over the shared ring storage.

    New transitions enter at the maximum priority seen so far (so every
    transition is replayed at least once before its TD error is known);
    :meth:`update_priorities` re-weights rows after each training step
    with ``(min(|td|, clip) + eps) ** alpha``. Sampling is stratified —
    one draw per equal slice of total priority mass — and returns
    importance-sampling weights normalized by their maximum, with
    ``beta`` annealed toward 1 per sampled batch. Everything except the
    draws themselves is deterministic, and the draws come from the
    buffer's seeded generator.
    """

    def __init__(
        self,
        capacity: int,
        seed: int = 0,
        alpha: float = 0.6,
        beta: float = 0.4,
        beta_increment: float = 1e-3,
        epsilon: float = 0.01,
        td_clip: float = 1.0,
    ) -> None:
        super().__init__(capacity, seed=seed)
        if not 0.0 <= alpha <= 1.0:
            raise ConfigurationError("alpha must be in [0, 1]")
        if not 0.0 <= beta <= 1.0:
            raise ConfigurationError("beta must be in [0, 1]")
        if beta_increment < 0 or epsilon <= 0 or td_clip <= 0:
            raise ConfigurationError(
                "beta_increment must be >= 0; epsilon and td_clip > 0"
            )
        self.alpha = alpha
        self.beta = beta
        self._beta0 = beta
        self.beta_increment = beta_increment
        self.epsilon = epsilon
        self.td_clip = td_clip
        self._tree = SumTree(capacity)
        # priorities live in tree space (already raised to alpha)
        self._max_priority = (epsilon + td_clip) ** alpha

    def push(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool,
        next_mask: np.ndarray,
    ) -> None:
        row = self._next
        super().push(state, action, reward, next_state, done, next_mask)
        self._tree.update(row, self._max_priority)

    def sample_prioritized(
        self, batch_size: int
    ) -> tuple[Batch, np.ndarray, np.ndarray]:
        """``(batch, rows, weights)`` — stratified proportional draw.

        ``rows`` are the storage-row indices to hand back to
        :meth:`update_priorities`; ``weights`` the max-normalized
        importance-sampling corrections for the loss.
        """
        self._check_batch(batch_size)
        total = self._tree.total
        if total <= 0.0:
            raise ConfigurationError("prioritized buffer has no priority mass")
        segment = total / batch_size
        rows = np.empty(batch_size, dtype=np.int64)
        priorities = np.empty(batch_size, dtype=np.float64)
        for i in range(batch_size):
            mass = self._rng.uniform(segment * i, segment * (i + 1))
            leaf = min(self._tree.find(mass), self._size - 1)
            rows[i] = leaf
            priorities[i] = self._tree.get(leaf)
        probs = np.maximum(priorities / total, 1e-12)
        weights = (self._size * probs) ** (-self.beta)
        weights = weights / float(weights.max())
        self.beta = min(1.0, self.beta + self.beta_increment)
        return self._gather(rows), rows, weights

    def sample(self, batch_size: int) -> Batch:
        """The prioritized draw without the bookkeeping columns (for
        callers that neither reweight nor update priorities)."""
        batch, _, _ = self.sample_prioritized(batch_size)
        return batch

    def update_priorities(
        self, rows: np.ndarray, td_errors: np.ndarray
    ) -> None:
        """Re-weight sampled rows from their fresh TD errors."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        td = np.abs(np.asarray(td_errors, dtype=np.float64)).ravel()
        if rows.shape != td.shape:
            raise ConfigurationError("rows and td_errors must align")
        priorities = (np.minimum(td, self.td_clip) + self.epsilon) ** self.alpha
        for row, priority in zip(rows.tolist(), priorities.tolist()):
            if not 0 <= row < self._size:
                raise ConfigurationError(f"row {row} is not a live transition")
            self._tree.update(row, priority)
            if priority > self._max_priority:
                self._max_priority = priority

    def clear(self) -> None:
        """Reset rows, cursor, tree mass, beta annealing, and the
        max-priority watermark; the sampling RNG stays (see base)."""
        super().clear()
        self._tree.clear()
        self.beta = self._beta0
        self._max_priority = (self.epsilon + self.td_clip) ** self.alpha
