"""Dueling double deep Q-network agent (paper Section IV-D, Table VI).

Combines:

* the **dueling architecture** of Wang et al. (2016) — V/A heads, built
  into :class:`repro.rl.nn.DuelingQNetwork`;
* **double Q-learning** of Hasselt et al. (2016) — the online network
  selects the bootstrap action, the target network evaluates it, which
  removes the maximization bias of vanilla DQN;
* **invalid-action masking** — the co-scheduling environment's template
  set depends on how many jobs remain in the window, so both action
  selection and the bootstrap argmax are restricted to valid actions;
* epsilon-greedy exploration with the paper's 1.0 -> 0.01 decay, set to
  0 for the online phase.

Training uses the Huber loss on TD errors, Adam, and global gradient
clipping; the target network is hard-synchronized every
``target_sync_every`` gradient steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, TrainingError
from repro.rl.nn import DuelingQNetwork
from repro.rl.optim import Adam, clip_grad_norm
from repro.rl.replay import ReplayBuffer
from repro.rl.schedules import ExponentialDecay

__all__ = ["DQNConfig", "DuelingDoubleDQNAgent"]

#: Q-value assigned to masked (invalid) actions during argmax.
_NEG_INF = -1e18


@dataclass
class DQNConfig:
    """Hyper-parameters (defaults follow Table VI where specified)."""

    n_inputs: int = 0  # required
    n_actions: int = 29
    hidden: tuple[int, ...] = (512, 256, 128)
    gamma: float = 0.95
    lr: float = 5e-4
    batch_size: int = 64
    replay_capacity: int = 50_000
    warmup_transitions: int = 256
    target_sync_every: int = 250
    grad_clip: float = 10.0
    epsilon_start: float = 1.0
    epsilon_end: float = 0.01
    epsilon_decay_rate: float = 0.999
    huber_delta: float = 1.0
    seed: int = 0
    # architecture/algorithm ablation switches (paper defaults: both on,
    # per Wang et al. 2016 and Hasselt et al. 2016)
    use_dueling: bool = True
    use_double: bool = True

    def __post_init__(self) -> None:
        if self.n_inputs <= 0:
            raise ConfigurationError("DQNConfig.n_inputs must be set")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError("gamma must be in [0, 1]")
        if self.batch_size <= 0 or self.replay_capacity <= 0:
            raise ConfigurationError("batch/replay sizes must be positive")


class DuelingDoubleDQNAgent:
    """The paper's co-scheduling agent (environment-agnostic core)."""

    def __init__(self, config: DQNConfig) -> None:
        self.config = config
        self.online = DuelingQNetwork(
            config.n_inputs,
            config.n_actions,
            config.hidden,
            seed=config.seed,
            dueling=config.use_dueling,
        )
        # seed=None: the target's weights are overwritten by the sync
        # below, so drawing a second He init would be pure waste.
        self.target = DuelingQNetwork(
            config.n_inputs,
            config.n_actions,
            config.hidden,
            seed=None,
            dueling=config.use_dueling,
        )
        self.target.load_state_dict(self.online.state_dict())
        self.optimizer = Adam(self.online.parameters(), lr=config.lr)
        self.replay = ReplayBuffer(config.replay_capacity, seed=config.seed)
        self.epsilon_schedule = ExponentialDecay(
            config.epsilon_start, config.epsilon_end, config.epsilon_decay_rate
        )
        self._rng = np.random.default_rng(config.seed)
        self.train_steps = 0
        self.env_steps = 0
        self.greedy = False  # online phase: no exploration
        self.loss_history: list[float] = []

    # ------------------------------------------------------------------
    # acting
    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        if self.greedy:
            return 0.0
        return self.epsilon_schedule.value(self.env_steps)

    def q_values(self, state: np.ndarray) -> np.ndarray:
        """Online-network Q-values for a single state, shape ``(A,)``."""
        return self.online.infer(np.atleast_2d(state))[0]

    def q_values_many(self, states: np.ndarray) -> np.ndarray:
        """Online-network Q-values for stacked states, shape ``(B, A)``.

        One forward call serves every row: ``B`` concurrent windows share
        one call's Python/dispatch overhead. Row ``i`` is bitwise-identical
        to ``q_values(states[i])``, which the serving identity tests
        pin; that guarantee comes from :meth:`DuelingQNetwork.infer_rows`
        (batch-size-invariant matmul shapes), not from BLAS. Pure
        inference — consumes no RNG, advances no counters.
        """
        return self.online.infer_rows(
            np.atleast_2d(np.asarray(states, dtype=np.float64))
        )

    def q_decomposition(
        self, state: np.ndarray
    ) -> tuple[np.ndarray, float, np.ndarray]:
        """``(Q, V, A)`` of the online network for a single state.

        Q is bitwise-identical to :meth:`q_values`; V is the dueling
        state value (0.0 for a plain head) and A the raw per-action
        advantages. Pure inference — consumes no RNG, mutates nothing.
        """
        q, v, a = self.online.infer_decomposed(np.atleast_2d(state))
        return q[0], float(v[0, 0]), a[0]

    def act(self, state: np.ndarray, mask: np.ndarray | None = None) -> int:
        """Epsilon-greedy action among the valid set."""
        n = self.config.n_actions
        if mask is None:
            mask = np.ones(n, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n,):
            raise ConfigurationError(f"mask must have shape ({n},)")
        valid = np.flatnonzero(mask)
        if valid.size == 0:
            raise TrainingError("no valid action available")
        self.env_steps += 1
        if self._rng.random() < self.epsilon:
            # equivalent to rng.choice(valid) — same draw, same stream —
            # without Generator.choice's setup overhead
            return int(valid[int(self._rng.integers(0, valid.size))])
        q = self.q_values(state)
        q = np.where(mask, q, _NEG_INF)
        return int(np.argmax(q))

    # ------------------------------------------------------------------
    # learning
    # ------------------------------------------------------------------
    def observe(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool,
        next_mask: np.ndarray | None = None,
    ) -> float | None:
        """Store a transition and take one gradient step when warm.

        Returns the training loss for this step, or ``None`` while the
        buffer is still warming up.
        """
        if next_mask is None:
            next_mask = np.ones(self.config.n_actions, dtype=bool)
        self.replay.push(state, action, reward, next_state, done, next_mask)
        if len(self.replay) < self._warm_threshold:
            return None
        return self.train_step()

    @property
    def _warm_threshold(self) -> int:
        # never ask the replay buffer for more rows than it holds —
        # sample() rejects oversized draws instead of silently repeating
        return max(self.config.warmup_transitions, self.config.batch_size)

    def train_step(self) -> float:
        """One minibatch update (double-DQN target, Huber loss)."""
        cfg = self.config
        batch = self.replay.sample(cfg.batch_size)

        # Double DQN: online net picks a*, target net evaluates it.
        # (With use_double off, the target net both picks and evaluates —
        # vanilla DQN's maximization bias, kept for the ablation.)
        dead = ~batch.next_masks.any(axis=1)
        q_next_target = self.target.infer(batch.next_states)
        if cfg.use_double:
            q_sel = self.online.infer(batch.next_states)
        else:
            q_sel = q_next_target
        q_sel = np.where(batch.next_masks, q_sel, _NEG_INF)
        # A terminal next-state can have an empty mask; its argmax value
        # is irrelevant because the done flag zeros the bootstrap.
        a_star = np.argmax(q_sel, axis=1)
        bootstrap = q_next_target[np.arange(len(batch)), a_star]
        bootstrap[batch.dones | dead] = 0.0
        targets = batch.rewards + cfg.gamma * bootstrap

        # Forward/backward on the taken actions only.
        q = self.online.forward(batch.states)
        taken = q[np.arange(len(batch)), batch.actions]
        td = taken - targets

        # Huber loss gradient wrt the taken-action Q-values.
        delta = cfg.huber_delta
        grad_taken = np.clip(td, -delta, delta) / len(batch)
        loss = float(
            np.mean(
                np.where(
                    np.abs(td) <= delta,
                    0.5 * td**2,
                    delta * (np.abs(td) - 0.5 * delta),
                )
            )
        )

        grad_q = np.zeros_like(q)
        grad_q[np.arange(len(batch)), batch.actions] = grad_taken
        self.online.zero_grad()
        self.online.backward(grad_q)
        clip_grad_norm(self.online.parameters(), cfg.grad_clip)
        self.optimizer.step()

        self.train_steps += 1
        if self.train_steps % cfg.target_sync_every == 0:
            self.target.load_state_dict(self.online.state_dict())
        self.loss_history.append(loss)
        return loss

    # ------------------------------------------------------------------
    # phases / persistence
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Enter the online phase: greedy policy, no exploration."""
        self.greedy = True

    def unfreeze(self) -> None:
        self.greedy = False

    def state_dict(self) -> dict:
        return {
            "online": self.online.state_dict(),
            "target": self.target.state_dict(),
            "train_steps": self.train_steps,
            "env_steps": self.env_steps,
        }

    def load_state_dict(self, state: dict) -> None:
        self.online.load_state_dict(state["online"])
        self.target.load_state_dict(state["target"])
        self.train_steps = int(state["train_steps"])
        self.env_steps = int(state["env_steps"])
