#pragma once

/// \file pgpub.h
/// Umbrella header: the supported public surface of the library, in one
/// include. Applications (and everything under examples/) depend on this
/// header only; the per-subsystem headers behind it are reachable for
/// fine-grained builds but are not a compatibility promise.
///
/// Surface map:
///   - Publishing: PgPublisher (one-shot), RobustPublisher (fail-closed,
///     PublishReport), engine::PublicationEngine (multi-request serving
///     with cross-run caches), guarantee calculators/solvers.
///   - Data model + I/O: Table/Schema/AttributeDomain, CSV microdata I/O,
///     taxonomy and recoding (de)serialization, PublishReport JSON.
///   - Attack side: the scenario framework (Publisher × AdversaryModel ×
///     dataset via BreachScenario, with rival-guarantee publishers and the
///     transparent adversary), linking attack and external database.
///   - Evaluation: synthetic datasets (census/SAL/hospital/clinic),
///     decision-tree/naive-Bayes mining, ℓ-diversity baseline,
///     m-invariance republication, query accuracy.
///   - Infrastructure: Status/Result, deterministic Rng, structured
///     logging and metrics.

// Infrastructure.
#include "common/random.h"
#include "common/result.h"
#include "common/string_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

// Data model and I/O.
#include "hierarchy/recoding.h"
#include "hierarchy/recoding_io.h"
#include "hierarchy/taxonomy.h"
#include "hierarchy/taxonomy_io.h"
#include "table/csv_io.h"
#include "table/table.h"

// Publishing pipeline.
#include "core/guarantees.h"
#include "core/pg_publisher.h"
#include "core/published_table.h"
#include "core/report_io.h"
#include "core/robust_publisher.h"
#include "core/verify.h"
#include "engine/publication_engine.h"
#include "generalize/tds.h"
#include "sample/stratified.h"

// Attack harness and scenario framework.
#include "attack/adversaries.h"
#include "attack/external_db.h"
#include "attack/linking_attack.h"
#include "attack/publishers.h"
#include "attack/scenario.h"

// Evaluation: datasets, mining, baselines.
#include "datagen/census.h"
#include "datagen/clinic.h"
#include "datagen/hospital.h"
#include "datagen/sal.h"
#include "diversity/beta_likeness.h"
#include "diversity/ldiversity.h"
#include "mining/dataset_io.h"
#include "mining/evaluate.h"
#include "mining/naive_bayes.h"
#include "republish/minvariance.h"
