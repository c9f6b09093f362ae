"""Additive correction of the blended velocity, learned with a small DQN.

The blend alone encodes the emotion but lets the altered trajectory drift
away from the measured one. A correction term v_u = k_u * alpha * (p_h -
p_a) pulls the altered position back per axis; the agent only chooses the
binary gate alpha, trading tracking (rewarded inside a delta_pos ball, exit
heavily penalized) against leaving the encoded blend untouched (every
active gate costs k_alpha per step).

A sufficiently high episode reward certifies the terminal constraint: any
trace that violates it forfeits at least the final in-ball bonus and pays
one exit penalty, which caps its achievable reward at bound_sigma.

:class:`AlterationBundle` binds the artifacts once and alters a sample in
any of the three modes: offline, online, and online with the gate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .blending import (
    BlendTable,
    blend,
    check_table_matches,
    solve_offline,
    table_fingerprint,
)
from .classifier import Decision, EncoderModel, classify
from .dataset import PartitionedDataset
from .errors import (
    ConfigError,
    DatasetParseError,
    DomainError,
    ProtocolError,
    ShapeMismatchError,
    StaleArtifactError,
    TrainingError,
)
from .nn import (
    Adam,
    Mlp,
    header_values,
    params_from_lines,
    params_to_lines,
    q_gradients,
)
from .online import OnlineSchedule, replay
from .signals import MotionSignal, SignalConfig, gap_at, integrate, terminal_instant

HORIZON_CAP = 200
STATE_SCALE = 0.001  # mm -> m for the value network only

_AGENT_HEADER = "motionblend-agent v1"


@dataclass(frozen=True)
class CorrectionConfig:
    """Correction gain, tube radius, and reward shaping."""

    k_u: float = 10.0
    delta_pos: float = 20.0
    k_r: float = 0.01
    k_alpha: float = 10.0
    r_in: float = 100.0
    r_exit: float = -1000.0
    gamma: float = 0.99

    def __post_init__(self):
        if not (self.k_u > 0):
            raise ConfigError(f"k_u must be positive, got {self.k_u}")
        if not (self.delta_pos > 0):
            raise ConfigError(f"delta_pos must be positive, got {self.delta_pos}")
        if self.k_r < 0 or self.k_alpha < 0:
            raise ConfigError("k_r and k_alpha are penalty magnitudes, must be >= 0")
        if self.r_in < 0 or self.r_exit > 0:
            raise ConfigError("expected r_in >= 0 and r_exit <= 0")
        if not (0.0 < self.gamma < 1.0):
            raise ConfigError(f"gamma must be in (0, 1), got {self.gamma}")


def decode_action(index: int, rho: int) -> np.ndarray:
    """Action index -> binary gate vector; bit k gates coordinate k."""
    if int(index) != index or not (0 <= index < 2**rho):
        raise DomainError(f"action index {index} outside [0, {2**rho})")
    return np.array([(int(index) >> k) & 1 for k in range(rho)], dtype=float)


def reward(p_h_t, p_a_t, alpha, g_t, g_prev, cfg: CorrectionConfig) -> float:
    """Per-step reward: tracking penalty, gate penalty, in/exit bonus."""
    gap = float(np.linalg.norm(np.asarray(p_a_t, float) - np.asarray(p_h_t, float)))
    if g_t == 1:
        bonus = cfg.r_in
    elif g_prev == 1:
        bonus = cfg.r_exit
    else:
        bonus = 0.0
    return -cfg.k_r * gap - cfg.k_alpha * float(np.max(alpha)) + bonus


@dataclass(frozen=True, eq=False)
class Episode:
    """One (v_h, v_r, c) triple ready to be corrected."""

    sample_id: str
    config: SignalConfig
    v_h: np.ndarray
    v_r: np.ndarray
    c: np.ndarray
    base_v_a: np.ndarray
    p0: np.ndarray
    eff_h: int
    eff_a: int
    t_term: int
    horizon: int


def make_episode(
    part: PartitionedDataset,
    table: BlendTable,
    model: EncoderModel,
    schedule: OnlineSchedule,
    sample,
    mode: str = "online",
) -> Episode:
    """Run the blending pipeline for one sample and freeze its outputs.

    ``mode="online"`` replays the streaming controller (warm-up
    pass-through, scheduled lookups); ``mode="offline"`` applies the
    whole-signal solution as a constant coefficient.
    """
    cfg = part.signal_config
    if mode == "online":
        res = replay(part, table, model, schedule, sample)
        v_r = part.all[part.encoded[res.reference_index]].velocity
        c = res.c_profile
        base_v_a = res.v_a.values
        eff_a = res.v_a.effective_length
        t_term = res.t_term
    elif mode == "offline":
        sol = solve_offline(sample.velocity, part, table, model)
        v_r = sol.v_r
        c = np.full(cfg.t_max, sol.c_hat)
        base_v_a = sol.v_a.values
        eff_a = sol.v_a.effective_length
        t_term = terminal_instant(sample.velocity).t
    else:
        raise ConfigError(f"unknown episode mode {mode!r}")
    eff_h = sample.effective_length
    return Episode(
        sample_id=sample.id,
        config=cfg,
        v_h=sample.velocity.values,
        v_r=v_r.values,
        c=np.asarray(c, dtype=float),
        base_v_a=base_v_a,
        p0=np.asarray(sample.initial_position, dtype=float),
        eff_h=eff_h,
        eff_a=eff_a,
        t_term=min(t_term, min(HORIZON_CAP, eff_h)),
        horizon=min(HORIZON_CAP, eff_h),
    )


@dataclass(eq=False)
class EpisodeTrace:
    """Step-by-step record of one corrected episode."""

    gaps: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    g: list = field(default_factory=list)
    rewards: list = field(default_factory=list)
    horizon: int = 0
    t_term: int = 1
    done: bool = False

    @property
    def terminal_gap(self) -> float:
        """Tracking gap at the movement's terminal instant."""
        if self.t_term < 2:
            return 0.0
        return float(self.gaps[self.t_term - 2])

    def discounted_reward(self, gamma: float) -> float:
        r = np.asarray(self.rewards)
        return float(np.sum(r * gamma ** np.arange(r.size)))


class CorrectionEnv:
    """Steps an episode under gated correction; builds the trace as it goes.

    The state handed to the agent is [p_h, p_a, v_h, previous v_a] in raw
    mm / mm/s. With every gate closed the emitted velocity equals the plain
    blend exactly.
    """

    def __init__(self, episode: Episode, cfg: CorrectionConfig,
                 initial_altered_position=None):
        self.episode = episode
        self.cfg = cfg
        rho = episode.config.rho
        self._p_a0 = (
            episode.p0 if initial_altered_position is None
            else np.asarray(initial_altered_position, dtype=float).reshape(rho)
        )
        self.reset()

    def reset(self) -> np.ndarray:
        ep = self.episode
        self.t = 0
        self.p_h = ep.p0.astype(float).copy()
        self.p_a = self._p_a0.astype(float).copy()
        self.v_a_prev = np.zeros(ep.config.rho)
        self.g_prev = 1  # trajectories start together, inside any tube
        self.v_a_values = ep.base_v_a.copy()
        self.trace = EpisodeTrace(horizon=ep.horizon, t_term=ep.t_term)
        return self._state()

    def _state(self) -> np.ndarray:
        ep = self.episode
        v_h_t = ep.v_h[min(self.t, ep.config.t_max - 1)]
        return np.concatenate([self.p_h, self.p_a, v_h_t, self.v_a_prev])

    def step(self, action_index: int):
        """Apply one gate choice; returns (state, reward, done, info)."""
        ep, cfg = self.episode, self.cfg
        if self.trace.done:
            raise ProtocolError("episode is already done")
        t = self.t  # 0-based step about to be taken
        alpha = decode_action(action_index, ep.config.rho)
        v_u = cfg.k_u * alpha * (self.p_h - self.p_a)
        v_a = ep.c[t] * ep.v_h[t] + (1.0 - ep.c[t]) * ep.v_r[t] + v_u
        self.v_a_values[t] = v_a
        dt = ep.config.dt
        self.p_h = self.p_h + dt * ep.v_h[t]
        self.p_a = self.p_a + dt * v_a
        gap = float(np.linalg.norm(self.p_h - self.p_a))
        g_t = 1 if gap <= cfg.delta_pos else 0
        r = reward(self.p_h, self.p_a, alpha, g_t, self.g_prev, cfg)
        self.trace.gaps.append(gap)
        self.trace.alphas.append(alpha)
        self.trace.g.append(g_t)
        self.trace.rewards.append(r)
        self.g_prev = g_t
        self.v_a_prev = v_a
        self.t = t + 1
        done = self.t >= ep.horizon
        if done:
            self.trace.done = True
        return self._state(), r, done, {"gap": gap, "g": g_t}

    def corrected_signal(self) -> MotionSignal:
        """The altered velocity with corrections applied up to the horizon."""
        return MotionSignal(self.v_a_values, self.episode.config, self.episode.eff_a)


@dataclass(frozen=True)
class GuaranteeCheck:
    reward_sum: float
    bound_sigma: float
    implies_constraint: bool


def guarantee_bound(horizon: int, cfg: CorrectionConfig) -> float:
    """Supremum of the discounted reward over constraint-violating traces.

    A violating trace has g = 0 at some step: that step forfeits r_in, pays
    the exit penalty (it was preceded by g = 1 somewhere, traces start
    inside), and carries a tracking penalty of at least k_r * delta_pos.
    Placing the violation at the last step, where discounting is weakest,
    bounds every such trace from above.
    """
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    g = cfg.gamma
    r_max = cfg.r_in * (1.0 - g**horizon) / (1.0 - g)
    return r_max + g ** (horizon - 1) * (cfg.r_exit - cfg.r_in - cfg.k_r * cfg.delta_pos)


def check_guarantee(trace: EpisodeTrace, cfg: CorrectionConfig) -> GuaranteeCheck:
    """Certificate check: reward above the bound implies the constraint held.

    The implication is sound by construction (see guarantee_bound); tests
    assert it against the recorded trace rather than assuming it.
    """
    if not trace.done:
        raise ProtocolError("cannot check an incomplete trace")
    reward_sum = trace.discounted_reward(cfg.gamma)
    bound = guarantee_bound(trace.horizon, cfg)
    return GuaranteeCheck(
        reward_sum=reward_sum,
        bound_sigma=bound,
        implies_constraint=reward_sum > bound,
    )


@dataclass(eq=False)
class AgentModel:
    """Trained gate-selection policy."""

    q_net: Mlp
    rho: int = 3
    state_scale: float = STATE_SCALE
    table_fingerprint: str = "-"

    def q_values(self, state: np.ndarray) -> np.ndarray:
        return self.q_net.forward(np.asarray(state, float) * self.state_scale)

    def act_greedy(self, state: np.ndarray) -> int:
        return int(np.argmax(self.q_values(state)))


@dataclass(frozen=True)
class AgentTrainConfig:
    """DQN training schedule."""

    episodes: int = 1100
    learning_rate: float = 0.001
    epsilon_start: float = 1.0
    epsilon_decay: float = 0.995
    epsilon_floor: float = 0.05
    replay_capacity: int = 50000
    batch_size: int = 64
    learn_start: int = 1000
    hidden: tuple = (128, 128)
    seed: int = 0
    mode: str = "online"

    def __post_init__(self):
        if self.episodes < 0 or self.batch_size < 1 or self.replay_capacity < 1:
            raise ConfigError("episodes, batch_size, replay_capacity must be positive")
        if self.mode not in ("online", "offline"):
            raise ConfigError(f"unknown coefficient mode {self.mode!r}")


class _Replay:
    """Fixed-capacity ring buffer of transitions."""

    def __init__(self, capacity: int, state_dim: int):
        self.capacity = capacity
        self.states = np.empty((capacity, state_dim))
        self.actions = np.empty(capacity, dtype=np.int64)
        self.rewards = np.empty(capacity)
        self.next_states = np.empty((capacity, state_dim))
        self.dones = np.empty(capacity)
        self.size = 0
        self._head = 0

    def push(self, s, a, r, s2, done):
        i = self._head
        self.states[i] = s
        self.actions[i] = a
        self.rewards[i] = r
        self.next_states[i] = s2
        self.dones[i] = float(done)
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng, batch_size):
        idx = rng.integers(0, self.size, batch_size)
        return (
            self.states[idx],
            self.actions[idx],
            self.rewards[idx],
            self.next_states[idx],
            self.dones[idx],
        )


def train_agent(
    part: PartitionedDataset,
    table: BlendTable,
    model: EncoderModel,
    cfg: CorrectionConfig,
    train_cfg: AgentTrainConfig,
    schedule: OnlineSchedule = OnlineSchedule(),
):
    """Train the gate policy on episodes drawn from the not-encoded pool.

    Returns the agent and one log row per episode: episode index (1-based),
    cumulative discounted reward, the epsilon used, the 100-episode moving
    average, and the per-horizon certificate bound with whether the episode
    cleared it.
    """
    rho = part.signal_config.rho
    rng = np.random.default_rng(train_cfg.seed)
    q_net = Mlp([4 * rho, *train_cfg.hidden, 2**rho], output="linear", rng=rng)
    target = q_net.copy()
    optimizer = Adam(q_net, lr=train_cfg.learning_rate)
    buffer = _Replay(train_cfg.replay_capacity, 4 * rho)
    agent = AgentModel(
        q_net=q_net,
        rho=rho,
        table_fingerprint=table_fingerprint(table),
    )
    episode_cache: dict = {}
    epsilon = train_cfg.epsilon_start
    rewards_seen: list = []
    log = []
    n_actions = 2**rho
    scale = agent.state_scale
    for k in range(1, train_cfg.episodes + 1):
        idx = int(rng.integers(0, len(part.not_encoded)))
        episode = episode_cache.get(idx)
        if episode is None:
            episode = make_episode(
                part, table, model, schedule,
                part.not_encoded_samples[idx], mode=train_cfg.mode,
            )
            episode_cache[idx] = episode
        env = CorrectionEnv(episode, cfg)
        state = env.reset()
        done = False
        while not done:
            if rng.random() < epsilon:
                action = int(rng.integers(0, n_actions))
            else:
                action = int(np.argmax(q_net.forward(state * scale)))
            next_state, r, done, _ = env.step(action)
            buffer.push(state, action, r, next_state, done)
            state = next_state
            if buffer.size >= train_cfg.learn_start:
                s, a, rew, s2, d = buffer.sample(rng, train_cfg.batch_size)
                q_next = target.forward(s2 * scale).max(axis=1)
                targets = rew + cfg.gamma * (1.0 - d) * q_next
                loss, gw, gb = q_gradients(q_net, s * scale, a, targets)
                if not np.isfinite(loss):
                    raise TrainingError(f"Q loss diverged in episode {k}", k)
                optimizer.step(q_net, gw, gb)
        target = q_net.copy()
        ep_reward = env.trace.discounted_reward(cfg.gamma)
        rewards_seen.append(ep_reward)
        bound = guarantee_bound(episode.horizon, cfg)
        log.append(
            {
                "episode": k,
                "cumulative_discounted_reward": ep_reward,
                "epsilon": epsilon,
                "moving_avg_100": float(np.mean(rewards_seen[-100:])),
                "bound_sigma": bound,
                "certified": int(ep_reward > bound),
            }
        )
        epsilon = max(train_cfg.epsilon_floor, epsilon * train_cfg.epsilon_decay)
    return agent, log


def training_log_to_csv(log) -> str:
    cols = [
        "episode",
        "cumulative_discounted_reward",
        "epsilon",
        "moving_avg_100",
        "bound_sigma",
        "certified",
    ]
    lines = [",".join(cols)]
    for row in log:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def serialize_agent(agent: AgentModel) -> str:
    lines = [
        _AGENT_HEADER,
        f"rho {agent.rho}",
        f"state_scale {agent.state_scale!r}",
        f"table {agent.table_fingerprint}",
        "dims " + " ".join(str(d) for d in agent.q_net.dims),
    ]
    lines += params_to_lines(agent.q_net)
    return "\n".join(lines) + "\n"


def save_agent(path, agent: AgentModel) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_agent(agent))


def agent_fingerprint(agent: AgentModel) -> str:
    return hashlib.sha256(serialize_agent(agent).encode()).hexdigest()


def load_agent(path) -> AgentModel:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _AGENT_HEADER:
        raise DatasetParseError(f"line 1: expected {_AGENT_HEADER!r}")
    (rho,) = header_values(lines, 2, "rho", int, count=1)
    (state_scale,) = header_values(lines, 3, "state_scale", float, count=1)
    (table_fp,) = header_values(lines, 4, "table", str, count=1)
    dims = header_values(lines, 5, "dims", int)
    if not (np.isfinite(state_scale) and state_scale > 0):
        raise DatasetParseError(
            f"line 3: state_scale must be finite and positive, got {state_scale!r}"
        )
    if len(dims) < 2 or dims[0] != 4 * rho or dims[-1] != 2**rho:
        raise DatasetParseError(
            f"line 5: dims {dims} do not fit rho {rho}: "
            f"expected {4 * rho} inputs and {2**rho} outputs"
        )
    net = params_from_lines(lines[5:], dims, output="linear", first_line=6)
    return AgentModel(q_net=net, rho=rho, state_scale=state_scale, table_fingerprint=table_fp)


@dataclass(frozen=True, eq=False)
class Outcome:
    """One altered sample, whatever the mode.

    ``c_profile`` is the coefficient applied at each sample. ``trace`` is the
    corrected episode's record in mode online+rl and None otherwise.
    """

    c_profile: np.ndarray
    c_final: float
    v_a: MotionSignal
    decision: Decision
    terminal_gap: float
    approximate: bool
    trace: Optional[EpisodeTrace] = None


@dataclass(frozen=True, eq=False)
class AlterationBundle:
    """Artifacts bound once; :meth:`alter` alters a sample in any mode.

    The constructor refuses a table built from another classifier or
    partition, and an agent trained for another rho or another table.
    """

    part: PartitionedDataset
    table: BlendTable
    model: EncoderModel
    schedule: OnlineSchedule = OnlineSchedule()
    correction: CorrectionConfig = CorrectionConfig()
    agent: Optional[AgentModel] = None

    def __post_init__(self):
        check_table_matches(self.table, self.part, self.model)
        agent, rho = self.agent, self.part.signal_config.rho
        if agent is not None and agent.rho != rho:
            raise ShapeMismatchError(
                f"agent was trained for rho {agent.rho}, the dataset has rho {rho}"
            )
        if agent is not None and agent.table_fingerprint not in ("-", self.table_fingerprint):
            raise StaleArtifactError("agent was trained against a different table")

    @cached_property
    def table_fingerprint(self) -> str:
        """The table's fingerprint, hashed at most once per bundle."""
        return table_fingerprint(self.table)

    def alter(self, sample, mode: str, force_c: Optional[float] = None) -> Outcome:
        """Alter one sample in mode offline, online or online+rl.

        ``force_c`` replaces the table's coefficient: offline the solved
        reference is blended at that value, online every scheduled lookup
        returns it. Mode online+rl refuses it.
        """
        if mode == "offline":
            sol = solve_offline(sample.velocity, self.part, self.table, self.model)
            if force_c is None:
                c, v_a, decision = sol.c_hat, sol.v_a, sol.decision
            else:
                c, v_a = float(force_c), blend(sample.velocity, sol.v_r, force_c)
                decision = classify(self.model, v_a)
            p0 = sample.initial_position
            gap = gap_at(integrate(sample.velocity, p0), integrate(v_a, p0),
                         terminal_instant(sample.velocity).t)
            c_profile = np.full(self.part.signal_config.t_max, c)
            return Outcome(c_profile, c, v_a, decision, gap, False)
        if mode == "online":
            res = replay(self.part, self.table, self.model, self.schedule, sample,
                         force_coefficient=force_c)
            return Outcome(res.c_profile, res.c_history[-1], res.v_a, res.decision,
                           res.terminal_gap, res.approximate)
        if mode != "online+rl":
            raise ConfigError(f"unknown alteration mode {mode!r}")
        if self.agent is None:
            raise ConfigError("mode online+rl needs an agent")
        if force_c is not None:
            raise ConfigError("a forced coefficient does not apply to mode online+rl")
        episode = make_episode(self.part, self.table, self.model, self.schedule, sample)
        env = CorrectionEnv(episode, self.correction)
        state, done = env.reset(), False
        while not done:
            state, _, done, _ = env.step(self.agent.act_greedy(state))
        v_a = env.corrected_signal()
        return Outcome(episode.c, float(episode.c[episode.horizon - 1]), v_a,
                       classify(self.model, v_a), env.trace.terminal_gap, False,
                       env.trace)
