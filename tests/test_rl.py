"""Gated correction environment, reward shaping, certificate bound, DQN."""

import numpy as np
import pytest

from motionblend import rl
from motionblend.blending import solve_offline, table_fingerprint
from motionblend.errors import ConfigError, DatasetParseError, DomainError, ProtocolError
from motionblend.nn import Mlp
from motionblend.online import OnlineSchedule, replay
from motionblend.rl import (
    AgentModel,
    AgentTrainConfig,
    CorrectionConfig,
    CorrectionEnv,
    Episode,
    EpisodeTrace,
    check_guarantee,
    decode_action,
    guarantee_bound,
    load_agent,
    make_episode,
    reward,
    save_agent,
    train_agent,
    training_log_to_csv,
)
from motionblend.signals import SignalConfig

CFG = CorrectionConfig()


def test_correction_config_validation():
    with pytest.raises(ConfigError):
        CorrectionConfig(k_u=0.0)
    with pytest.raises(ConfigError):
        CorrectionConfig(delta_pos=-1.0)
    with pytest.raises(ConfigError):
        CorrectionConfig(k_r=-0.1)
    with pytest.raises(ConfigError):
        CorrectionConfig(r_in=-5.0)
    with pytest.raises(ConfigError):
        CorrectionConfig(gamma=1.0)


def test_decode_action_bits():
    assert np.array_equal(decode_action(0, 3), [0, 0, 0])
    assert np.array_equal(decode_action(5, 3), [1, 0, 1])
    assert np.array_equal(decode_action(7, 3), [1, 1, 1])
    with pytest.raises(DomainError):
        decode_action(8, 3)
    with pytest.raises(DomainError):
        decode_action(-1, 3)


def test_reward_hand_values():
    zero = np.zeros(3)
    # 100 mm adrift, one gate open, outside the tube and not just exited.
    r = reward(zero, [100.0, 0.0, 0.0], np.array([1.0, 0, 0]), 0, 0, CFG)
    assert r == pytest.approx(-11.0)
    # On target with every gate closed.
    assert reward(zero, zero, np.zeros(3), 1, 1, CFG) == pytest.approx(100.0)
    # Just exited at 30 mm.
    r = reward(zero, [30.0, 0.0, 0.0], np.zeros(3), 0, 1, CFG)
    assert r == pytest.approx(-1000.3)


def test_reward_decomposition():
    # Net of the shaping terms only the in/exit bonus remains.
    rng = np.random.default_rng(0)
    for _ in range(300):
        gap = rng.uniform(0, 60)
        alpha = rng.integers(0, 2, 3).astype(float)
        g_t = int(gap <= CFG.delta_pos)
        g_prev = int(rng.integers(0, 2))
        r = reward(np.zeros(3), [gap, 0, 0], alpha, g_t, g_prev, CFG)
        residue = r + CFG.k_r * gap + CFG.k_alpha * alpha.max()
        assert min(
            abs(residue - CFG.r_in), abs(residue - CFG.r_exit), abs(residue)
        ) < 1e-9


def hand_episode(t_max=30):
    cfg = SignalConfig(t_max=t_max)
    zeros = np.zeros((t_max, 3))
    return Episode(
        sample_id="hand",
        config=cfg,
        v_h=zeros,
        v_r=zeros,
        c=np.zeros(t_max),
        base_v_a=zeros,
        p0=np.zeros(3),
        eff_h=t_max,
        eff_a=t_max,
        t_term=t_max,
        horizon=t_max,
    )


def test_env_state_layout():
    env = CorrectionEnv(hand_episode(), CFG, initial_altered_position=[12.0, 0, 0])
    state = env.reset()
    assert np.array_equal(state, [0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0, 0])


def test_env_gap_contracts_under_full_gating():
    # Stationary target, 12 mm initial offset: each step multiplies the
    # error by (1 - k_u * dt) = 0.9.
    env = CorrectionEnv(hand_episode(), CFG, initial_altered_position=[12.0, 0, 0])
    env.reset()
    done = False
    while not done:
        _, r, done, info = env.step(7)
    expected = 12.0 * 0.9 ** np.arange(1, 31)
    assert np.allclose(env.trace.gaps, expected, rtol=1e-12)
    assert all(g == 1 for g in env.trace.g)
    assert env.trace.terminal_gap == pytest.approx(expected[-2])


def test_env_idle_gates_leave_the_gap():
    env = CorrectionEnv(hand_episode(), CFG, initial_altered_position=[12.0, 0, 0])
    env.reset()
    _, r, _, _ = env.step(0)
    assert env.trace.gaps[0] == pytest.approx(12.0)
    assert r == pytest.approx(100.0 - 0.12)  # in-tube bonus minus tracking


def test_env_step_protocol():
    env = CorrectionEnv(hand_episode(t_max=3), CFG)
    env.reset()
    for _ in range(3):
        _, _, done, _ = env.step(0)
    assert done and env.trace.done
    with pytest.raises(ProtocolError):
        env.step(0)


def test_closed_gates_reproduce_plain_blend(
    small_part, small_table, small_model, schedule
):
    sample = small_part.not_encoded_samples[0]
    episode = make_episode(small_part, small_table, small_model, schedule, sample)
    env = CorrectionEnv(episode, CFG)
    env.reset()
    done = False
    while not done:
        _, _, done, _ = env.step(0)
    assert np.array_equal(env.corrected_signal().values, episode.base_v_a)


def test_make_episode_online_freezes_replay(
    small_part, small_table, small_model, schedule
):
    sample = small_part.not_encoded_samples[1]
    res = replay(small_part, small_table, small_model, schedule, sample)
    ep = make_episode(small_part, small_table, small_model, schedule, sample)
    assert np.array_equal(ep.c, res.c_profile)
    assert np.array_equal(ep.base_v_a, res.v_a.values)
    assert ep.horizon == min(rl.HORIZON_CAP, sample.effective_length)
    assert ep.t_term == min(res.t_term, ep.horizon)


def test_make_episode_offline_constant_coefficient(
    small_part, small_table, small_model, schedule
):
    sample = small_part.not_encoded_samples[2]
    sol = solve_offline(sample.velocity, small_part, small_table, small_model)
    ep = make_episode(
        small_part, small_table, small_model, schedule, sample, mode="offline"
    )
    assert np.all(ep.c == sol.c_hat)
    assert np.array_equal(ep.base_v_a, sol.v_a.values)
    with pytest.raises(ConfigError):
        make_episode(small_part, small_table, small_model, schedule, sample, mode="x")


def test_trace_terminal_gap_indexing():
    trace = EpisodeTrace(gaps=[5.0, 6.0, 7.0], horizon=3, t_term=3)
    assert trace.terminal_gap == 6.0
    assert EpisodeTrace(gaps=[5.0], horizon=1, t_term=1).terminal_gap == 0.0


def test_guarantee_bound_hand_values():
    # Horizon 1: the only step violates, so the certificate level is the
    # exit payment plus the tracking penalty floor.
    assert guarantee_bound(1, CFG) == pytest.approx(-1000.0 - 0.01 * 20.0)
    expected2 = 100.0 * (1 + 0.99) + 0.99 * (-1000.0 - 100.0 - 0.2)
    assert guarantee_bound(2, CFG) == pytest.approx(expected2)
    with pytest.raises(DomainError):
        guarantee_bound(0, CFG)


def make_trace(gaps, cfg, t_term=None):
    trace = EpisodeTrace(horizon=len(gaps), t_term=t_term or len(gaps))
    g_prev = 1
    rng = np.random.default_rng(42)
    for gap in gaps:
        g_t = int(gap <= cfg.delta_pos)
        alpha = rng.integers(0, 2, 3).astype(float)
        trace.gaps.append(float(gap))
        trace.alphas.append(alpha)
        trace.g.append(g_t)
        trace.rewards.append(reward(np.zeros(3), [gap, 0, 0], alpha, g_t, g_prev, cfg))
        g_prev = g_t
    trace.done = True
    return trace


def test_check_guarantee_two_sided():
    stays_in = make_trace(np.zeros(40), CorrectionConfig(k_alpha=0.0))
    chk = check_guarantee(stays_in, CorrectionConfig(k_alpha=0.0))
    assert chk.implies_constraint
    assert stays_in.terminal_gap <= CFG.delta_pos
    runs_away = make_trace(np.full(40, 60.0), CFG)
    chk = check_guarantee(runs_away, CFG)
    assert not chk.implies_constraint


def test_check_guarantee_needs_finished_trace():
    with pytest.raises(ProtocolError):
        check_guarantee(EpisodeTrace(horizon=3, t_term=3), CFG)


def test_certificate_never_lies_on_fuzzed_traces():
    """Certified reward must imply the terminal constraint, always."""
    rng = np.random.default_rng(7)
    false_positives = 0
    certified = 0
    for _ in range(2000):
        horizon = int(rng.integers(1, 41))
        if rng.random() < 0.3:
            gaps = rng.uniform(0, CFG.delta_pos, horizon)  # certifiable side
        else:
            gaps = rng.uniform(0, 3 * CFG.delta_pos, horizon)
        t_term = int(rng.integers(1, horizon + 1))
        trace = make_trace(gaps, CFG, t_term=t_term)
        chk = check_guarantee(trace, CFG)
        if chk.implies_constraint:
            certified += 1
            if trace.terminal_gap > CFG.delta_pos:
                false_positives += 1
    assert false_positives == 0
    assert 0 < certified < 2000  # both sides of the bound were exercised


def test_certificate_attainable_with_quiet_gates():
    # The bound is strict but reachable: an in-tube trace with closed
    # gates clears it, so certification is not vacuously impossible.
    trace = make_trace(np.zeros(200), CorrectionConfig(k_alpha=0.0))
    for t in range(200):
        trace.alphas[t] = np.zeros(3)
        trace.rewards[t] = reward(np.zeros(3), np.zeros(3), np.zeros(3), 1, 1, CFG)
    chk = check_guarantee(trace, CFG)
    assert chk.implies_constraint


def test_train_config_validation():
    with pytest.raises(ConfigError):
        AgentTrainConfig(episodes=-1)
    with pytest.raises(ConfigError):
        AgentTrainConfig(mode="sideways")


def test_zero_episode_training_returns_fresh_agent(
    small_part, small_table, small_model, schedule
):
    agent, log = train_agent(
        small_part, small_table, small_model, CFG,
        AgentTrainConfig(episodes=0), schedule,
    )
    assert log == []
    assert agent.table_fingerprint == table_fingerprint(small_table)
    assert agent.q_net.dims == [12, 128, 128, 8]


def test_training_is_deterministic_and_logged(
    small_part, small_table, small_model, schedule
):
    cfg = AgentTrainConfig(episodes=6, learn_start=120, batch_size=16, seed=3)
    a1, log1 = train_agent(small_part, small_table, small_model, CFG, cfg, schedule)
    a2, log2 = train_agent(small_part, small_table, small_model, CFG, cfg, schedule)
    assert rl.agent_fingerprint(a1) == rl.agent_fingerprint(a2)
    assert log1 == log2
    assert [row["episode"] for row in log1] == list(range(1, 7))
    eps = [row["epsilon"] for row in log1]
    assert eps[0] == 1.0
    assert eps[2] == pytest.approx(0.995**2)
    rewards = [row["cumulative_discounted_reward"] for row in log1]
    assert log1[-1]["moving_avg_100"] == pytest.approx(np.mean(rewards))
    for row in log1:
        assert row["certified"] == int(
            row["cumulative_discounted_reward"] > row["bound_sigma"]
        )
    csv = training_log_to_csv(log1)
    assert csv.splitlines()[0].startswith("episode,")
    assert len(csv.splitlines()) == 7


def test_agent_save_load_roundtrip(tmp_path):
    net = Mlp([12, 16, 8], output="linear", rng=np.random.default_rng(1))
    agent = AgentModel(q_net=net, table_fingerprint="abc123")
    path = tmp_path / "agent.txt"
    save_agent(path, agent)
    back = load_agent(path)
    assert rl.agent_fingerprint(back) == rl.agent_fingerprint(agent)
    state = np.random.default_rng(2).normal(0, 1000, 12)
    assert np.array_equal(back.q_values(state), agent.q_values(state))
    assert back.act_greedy(state) == agent.act_greedy(state)


def test_agent_q_values_scale_state():
    net = Mlp([12, 8], output="linear", rng=np.random.default_rng(3))
    agent = AgentModel(q_net=net)
    state = np.full(12, 500.0)
    assert np.array_equal(agent.q_values(state), net.forward(state * 0.001))


def test_load_agent_rejects_bad_header(tmp_path):
    path = tmp_path / "agent.txt"
    path.write_text("nope\n")
    with pytest.raises(DatasetParseError):
        load_agent(path)


@pytest.mark.parametrize(
    "old, new, where",
    [
        ("state_scale 0.001", "state_scale nan", "line 3"),
        ("state_scale 0.001", "state_scale inf", "line 3"),
        ("state_scale 0.001", "state_scale 0.0", "line 3"),
        ("rho 3", "rho 2", "line 5"),
        ("dims 12 16 8", "dims 12 16 4", "line 5"),
    ],
)
def test_load_agent_rejects_inconsistent_header(tmp_path, old, new, where):
    net = Mlp([12, 16, 8], output="linear", rng=np.random.default_rng(4))
    text = rl.serialize_agent(AgentModel(q_net=net))
    assert old in text
    path = tmp_path / "agent.txt"
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(DatasetParseError, match=f"^{where}:"):
        load_agent(path)


@pytest.mark.parametrize(
    "old, new, where",
    [
        ("rho 3", "foo 3", "line 2"),
        ("state_scale ", "scale ", "line 3"),
        ("table ", "tbl ", "line 4"),
        ("dims ", "shape ", "line 5"),
        ("rho 3", "rho", "line 2"),
        ("rho 3", "rho three", "line 2"),
    ],
)
def test_load_agent_checks_header_keys(tmp_path, old, new, where):
    net = Mlp([12, 16, 8], output="linear", rng=np.random.default_rng(4))
    text = rl.serialize_agent(AgentModel(q_net=net))
    assert old in text
    path = tmp_path / "agent.txt"
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(DatasetParseError, match=f"^{where}:"):
        load_agent(path)


def test_load_agent_rejects_non_finite_weights(tmp_path):
    net = Mlp([12, 16, 8], output="linear", rng=np.random.default_rng(5))
    net.weights[1][2, 3] = np.nan
    path = tmp_path / "agent.txt"
    path.write_text(rl.serialize_agent(AgentModel(q_net=net)))
    # Lines 1-5 header, 6 layer 0 header, 7-18 its rows, 19-20 bias 0,
    # 21 layer 1 header: row 2 of layer 1 is line 24.
    with pytest.raises(DatasetParseError, match="^line 24:"):
        load_agent(path)
