#[cfg(test)]
mod tests {
    use crate::composite::GameForm;
    use crate::curator::{curator_class_shapley, Ownership};
    use crate::estimator::{
        Data, Estimator, EstimatorError, Family, InputError, Source, Task, Valuation,
    };
    use crate::mc::StoppingRule;
    use crate::schedule::Schedule;
    use crate::types::ShapleyValues;
    use knnshap_datasets::synth::blobs::{self, BlobConfig};
    use knnshap_datasets::{ClassDataset, Features};
    use knnshap_knn::graph::KnnGraph;
    use knnshap_knn::weights::WeightFn;

    fn data() -> (ClassDataset, ClassDataset) {
        let cfg = BlobConfig {
            n: 120,
            dim: 6,
            n_classes: 3,
            cluster_std: 0.6,
            center_scale: 3.0,
            seed: 2,
        };
        (blobs::generate(&cfg), blobs::queries(&cfg, 6, 3))
    }

    fn estimator(task: Task, k: usize, weight: WeightFn, family: Family) -> Estimator {
        Estimator {
            task,
            k,
            weight,
            family,
            seed: 1,
        }
    }

    /// An unweighted classification run on the static schedule.
    fn class_run(
        train: &ClassDataset,
        test: &ClassDataset,
        k: usize,
        family: Family,
        threads: usize,
    ) -> Result<Valuation, EstimatorError> {
        estimator(Task::Class, k, WeightFn::Uniform, family).run(
            Data::Class { train, test },
            Source::Brute,
            threads,
            Schedule::Static,
        )
    }

    fn values(run: Result<Valuation, EstimatorError>) -> ShapleyValues {
        run.unwrap().values
    }

    #[test]
    fn exact_default_runs() {
        let (train, test) = data();
        let sv = values(class_run(&train, &test, 3, Family::Exact, 2));
        assert_eq!(sv.len(), 120);
    }

    #[test]
    fn truncated_close_to_exact() {
        let (train, test) = data();
        let exact = values(class_run(&train, &test, 2, Family::Exact, 2));
        let approx = values(class_run(
            &train,
            &test,
            2,
            Family::Truncated { eps: 0.1 },
            2,
        ));
        assert!(exact.max_abs_diff(&approx) <= 0.1 + 1e-12);
    }

    #[test]
    fn lsh_runs_and_is_bounded() {
        let (train, test) = data();
        let exact = values(class_run(&train, &test, 1, Family::Exact, 2));
        let approx =
            crate::lsh_approx::lsh_class_shapley_planned(&train, &test, 1, 0.15, 0.1, 32).unwrap();
        // allow the δ failure slack
        assert!(exact.max_abs_diff(&approx) <= 0.3);
    }

    #[test]
    fn mc_methods_run() {
        let (train, test) = data();
        let a = values(class_run(
            &train,
            &test,
            2,
            Family::McBaseline {
                rule: StoppingRule::Fixed(30),
            },
            2,
        ));
        let b = values(class_run(
            &train,
            &test,
            2,
            Family::McImproved {
                rule: StoppingRule::Fixed(200),
            },
            2,
        ));
        assert_eq!(a.len(), 120);
        assert_eq!(b.len(), 120);
    }

    #[test]
    fn run_report_exposes_mc_permutations_and_is_thread_count_free() {
        let (train, test) = data();
        let family = Family::McImproved {
            rule: StoppingRule::Fixed(120),
        };
        let serial = class_run(&train, &test, 2, family, 1).unwrap();
        assert_eq!(serial.permutations, Some(120));
        for threads in [2usize, 8] {
            let par = class_run(&train, &test, 2, family, threads).unwrap();
            assert_eq!(par.permutations, Some(120));
            for i in 0..train.len() {
                assert_eq!(
                    serial.values.get(i).to_bits(),
                    par.values.get(i).to_bits(),
                    "i={i} threads={threads}"
                );
            }
        }
        let exact = class_run(&train, &test, 1, Family::Exact, 2).unwrap();
        assert_eq!(exact.permutations, None);
    }

    #[test]
    fn weighted_exact_dispatches() {
        let (train, test) = data();
        let small_train = train.gather(&(0..40).collect::<Vec<_>>());
        let weight = WeightFn::InverseDistance { eps: 1e-3 };
        let data = Data::Class {
            train: &small_train,
            test: &test,
        };
        let sv = estimator(Task::Class, 2, weight, Family::Exact)
            .run(data, Source::Brute, 2, Schedule::Static)
            .unwrap()
            .values;
        assert_eq!(sv.len(), 40);
    }

    #[test]
    fn weighted_rejected_for_retrieval_methods() {
        let (train, test) = data();
        let weight = WeightFn::InverseDistance { eps: 1e-3 };
        let est = estimator(Task::Class, 1, weight, Family::Truncated { eps: 0.1 });
        let data = Data::Class {
            train: &train,
            test: &test,
        };
        let err = est
            .run(data, Source::Brute, 2, Schedule::Static)
            .unwrap_err();
        let refusal = EstimatorError::Unsupported("truncated supports uniform weights only".into());
        assert_eq!(err, refusal);
        // The sharded path refuses with the same text.
        assert_eq!(est.prepare(data, Source::Brute).err(), Some(refusal));
    }

    #[test]
    fn validation_errors() {
        let (train, test) = data();
        let empty = ClassDataset::new(Features::new(vec![], 6), vec![], 3);
        let input_err = |train: &ClassDataset, test: &ClassDataset| {
            class_run(train, test, 1, Family::Exact, 2).unwrap_err()
        };
        assert_eq!(
            input_err(&train, &empty),
            EstimatorError::Input(InputError::EmptyTestSet)
        );
        assert_eq!(
            input_err(&empty, &test),
            EstimatorError::Input(InputError::EmptyTrainSet)
        );
        let wrong_dim = ClassDataset::new(Features::new(vec![0.0; 4], 2), vec![0, 1], 3);
        assert_eq!(
            input_err(&train, &wrong_dim),
            EstimatorError::Input(InputError::DimensionMismatch)
        );
    }

    #[test]
    fn non_finite_features_are_rejected_not_panicked() {
        let (train, test) = data();
        let mut poisoned_test = test.clone();
        poisoned_test.x.row_mut(3)[2] = f32::NAN;
        assert_eq!(
            class_run(&train, &poisoned_test, 1, Family::Exact, 2).unwrap_err(),
            EstimatorError::Input(InputError::NonFiniteFeature {
                which: "test",
                row: 3
            })
        );
        let mut poisoned_train = train.clone();
        poisoned_train.x.row_mut(7)[0] = f32::INFINITY;
        assert_eq!(
            class_run(&poisoned_train, &test, 1, Family::Exact, 2).unwrap_err(),
            EstimatorError::Input(InputError::NonFiniteFeature {
                which: "train",
                row: 7
            })
        );
    }

    #[test]
    fn graph_backed_run_is_bitwise_identical_and_validated() {
        let (train, test) = data();
        let graph = KnnGraph::build(&train.x, &test.x, 2);
        let data = Data::Class {
            train: &train,
            test: &test,
        };
        for family in [
            Family::Exact,
            Family::Truncated { eps: 0.1 },
            Family::McImproved {
                rule: StoppingRule::Fixed(60),
            },
        ] {
            let est = estimator(Task::Class, 2, WeightFn::Uniform, family);
            let brute = est.run(data, Source::Brute, 2, Schedule::Static).unwrap();
            for schedule in [Schedule::Static, Schedule::Measured] {
                let via_graph = est.run(data, Source::Graph(&graph), 2, schedule).unwrap();
                for i in 0..train.len() {
                    assert_eq!(
                        brute.values.get(i).to_bits(),
                        via_graph.values.get(i).to_bits(),
                        "i={i} family={family:?} schedule={schedule:?}"
                    );
                }
            }
        }
        // a graph built from different data is refused before any valuation
        let mut other = train.clone();
        other.x.row_mut(0)[0] += 1.0;
        let stale = KnnGraph::build(&other.x, &test.x, 2);
        let err = estimator(Task::Class, 1, WeightFn::Uniform, Family::Exact)
            .run(data, Source::Graph(&stale), 2, Schedule::Static)
            .unwrap_err();
        assert!(matches!(
            err,
            EstimatorError::Input(InputError::GraphMismatch(_))
        ));
    }

    #[test]
    fn curator_path() {
        let (train, test) = data();
        let own = Ownership::round_robin(train.len(), 10);
        let sv = curator_class_shapley(
            &train,
            &own,
            &test,
            2,
            WeightFn::Uniform,
            GameForm::DataOnly,
        );
        assert_eq!(sv.len(), 10);
    }

    mod regression {
        use super::*;
        use knnshap_datasets::synth::regression::{self, RegressionConfig};
        use knnshap_datasets::RegDataset;

        fn reg_data() -> (RegDataset, RegDataset) {
            let cfg = RegressionConfig {
                n: 80,
                ..Default::default()
            };
            (regression::generate(&cfg), regression::queries(&cfg, 6))
        }

        fn reg_run(
            train: &RegDataset,
            test: &RegDataset,
            k: usize,
            weight: WeightFn,
            family: Family,
        ) -> Result<Valuation, EstimatorError> {
            estimator(Task::Reg, k, weight, family).run(
                Data::Reg { train, test },
                Source::Brute,
                2,
                Schedule::Static,
            )
        }

        #[test]
        fn exact_unweighted_runs_and_distributes_utility() {
            let (train, test) = reg_data();
            let sv = values(reg_run(&train, &test, 3, WeightFn::Uniform, Family::Exact));
            assert_eq!(sv.len(), 80);
            let u = crate::utility::KnnRegUtility::unweighted(&train, &test, 3);
            use crate::utility::Utility;
            assert!((sv.total() - u.grand()).abs() < 1e-9);
        }

        #[test]
        fn weighted_exact_dispatches() {
            let (train, test) = reg_data();
            let small = train.gather(&(0..30).collect::<Vec<_>>());
            let weight = WeightFn::Exponential { beta: 0.5 };
            let sv = values(reg_run(&small, &test, 2, weight, Family::Exact));
            assert_eq!(sv.len(), 30);
        }

        #[test]
        fn mc_improved_tracks_exact() {
            let (train, test) = reg_data();
            let exact = values(reg_run(&train, &test, 2, WeightFn::Uniform, Family::Exact));
            let family = Family::McImproved {
                rule: StoppingRule::Fixed(4000),
            };
            let mc = values(reg_run(&train, &test, 2, WeightFn::Uniform, family));
            // statistical agreement: generous but non-vacuous envelope
            let spread = exact
                .as_slice()
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()))
                .max(1e-9);
            assert!(exact.max_abs_diff(&mc) < 0.5 * spread + 0.05);
        }

        #[test]
        fn mc_baseline_runs() {
            let (train, test) = reg_data();
            let family = Family::McBaseline {
                rule: StoppingRule::Fixed(20),
            };
            let sv = values(reg_run(&train, &test, 1, WeightFn::Uniform, family));
            assert_eq!(sv.len(), 80);
        }

        #[test]
        fn validation_errors() {
            let (train, test) = reg_data();
            let empty = RegDataset::new(Features::new(vec![], train.dim()), vec![]);
            let input_err = |train: &RegDataset, test: &RegDataset| {
                reg_run(train, test, 1, WeightFn::Uniform, Family::Exact).unwrap_err()
            };
            assert_eq!(
                input_err(&train, &empty),
                EstimatorError::Input(InputError::EmptyTestSet)
            );
            assert_eq!(
                input_err(&empty, &test),
                EstimatorError::Input(InputError::EmptyTrainSet)
            );
        }
    }
}
