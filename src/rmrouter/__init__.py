"""rmrouter: hybrid offline/online routing over a pool of reward models.

The package has three layers:

* core primitives: Gaussian weight beliefs with conjugate batch updates
  (:mod:`rmrouter.gaussian`), preference-pair embeddings
  (:mod:`rmrouter.features`), and loss-to-reward conversion
  (:mod:`rmrouter.rewards`);
* the two routers: a multi-task offline router trained on labelled
  preference data (:mod:`rmrouter.offline`) and a per-pair Thompson-sampling
  online router that can start from the offline router's arm embeddings
  (:mod:`rmrouter.online`);
* a replay harness with synthetic reward-model pools and baselines
  (:mod:`rmrouter.sim`), plus a thin CLI (:mod:`rmrouter.cli`).
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DimError,
    FormatError,
    InputError,
    NonPSDError,
    NumericalError,
    RouterError,
    TrainError,
)
from .features import (
    FusionParams,
    HashingEncoder,
    PairEmbedding,
    PreferencePair,
    embed_pair,
    encode_text,
    load_dataset,
    load_embeddings,
    save_dataset,
    save_embeddings,
)
from .gaussian import (
    ArmPosterior,
    Beliefs,
    make_prior,
    posterior_update,
    sample_scores,
    sample_weight,
    sample_weights,
)
from .offline import (
    OfflineRouterModel,
    TrainConfig,
    TrainResult,
    collect_behavior,
    export_prior,
    extract_disagreements,
    load_model,
    routing_accuracy,
    save_model,
    train_offline,
)
from .online import (
    OnlineRouterState,
    RouterConfig,
    init_router,
    load_state,
    observe_feedback,
    route_batch,
    route_linucb,
    route_weighted_score,
    save_state,
    update_linucb,
)
from .rewards import (
    RewardHistory,
    advantage_rewards,
    batch_baseline_array,
    dpo_loss,
    normalize_step_rewards,
    sample_comparators,
    surrogate_pair_loss,
)
from .sim import (
    Cluster,
    ReplayConfig,
    RunMetrics,
    SimDataset,
    SimScenario,
    compare_runs,
    fit_offline_router,
    generate_scenario,
    run_replay,
    scenario_from_dict,
    scenario_to_dict,
)
