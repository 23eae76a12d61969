"""Divide-and-conquer Bayesian network structure learning on discrete data.

The pieces compose in pipeline order: sample or load a dataset
(:mod:`bnsl.data`), weigh variable pairs and truncate (:mod:`bnsl.weights`),
cut the variables into overlapping communities by consensus
(:mod:`bnsl.partition`), isolate each community behind Markov blankets and
sample learning windows (:mod:`bnsl.blankets`), average structures over
node orders (:mod:`bnsl.averaging`), and merge the community structures
back into one network (:mod:`bnsl.merge`).  :mod:`bnsl.pipeline` wires the
stages together and :mod:`bnsl.evaluate` scores results against a known
ground truth.  :mod:`bnsl.special` computes the log-gamma, log-sum-exp and
chi-squared tail of the stages as scipy does, so the pipeline never imports
scipy.
"""

from .averaging import (EdgePosterior, LearnerConfig, LocalStructure, ScoreCache,
                        bdeu_family_score, exact_order_average,
                        feature_posterior_given_order, greedy_learn,
                        learn_structure, load_structure, order_log_marginal,
                        order_mcmc, save_structure, threshold_edges)
from .blankets import (BlanketResult, SubCommunity, community_blanket,
                       conditional_mutual_information, g_test, iamb,
                       inner_markov_graph, mb_candidates, rnn_sample)
from .data import (DiscreteDataset, GroundTruthNet, discretize, forward_sample,
                   load_dataset, load_network, parse_network, save_dataset,
                   save_network, serialize_network)
from .errors import (BudgetExceeded, ConditioningSetTooLarge, FamilyTooLarge,
                     InvalidInput, NetworkFormatError, PipelineStageError)
from .evaluate import EvalReport, metrics_from_counts, partition_diagnostics, score_structure
from .merge import (MergeResult, TripletGraph, collect_triplets,
                    combine_structures, jaccard, merge_all, resolve)
from .partition import (Partition, co_occurrence, consensus_partition,
                        link_communities, load_partition, membership,
                        save_partition, second_order_network)
from .pipeline import (PipelineConfig, PipelineResult, build_substrate,
                       derive_seed, load_inputs, run_pipeline)
from .weights import (WEIGHT_FUNCTIONS, PairStats, WeightedGraph, elbow_threshold,
                      elbow_truncate, entropy, load_weighted_graph,
                      mutual_information, pagerank, pair_stats,
                      save_weighted_graph, weight_matrix)

__version__ = "0.1.0"
