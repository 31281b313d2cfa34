/// \file quickstart.cpp
/// The paper's running example end-to-end: anonymize the hospital
/// microdata of Table Ia with perturbed generalization (p = 0.25, s = 0.5
/// => k = 2, as in Table II), print every phase, then replay Example 1 —
/// the corruption-aided linking attack against Ellie with
/// 𝒞 = {Debbie, Emily}.
///
/// Usage: quickstart [--report=PATH] [--trace=PATH]
///   --report=PATH  write the PublishReport of the run as JSON to PATH.
///   --trace=PATH   collect the run's spans and write Chrome Trace Event
///                  JSON (chrome://tracing / Perfetto) to PATH.
/// Status output goes through the structured logger (PGPUB_LOG /
/// PGPUB_LOG_FORMAT control level and encoding; defaults to info/text
/// here so the run narrates itself).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "pgpub.h"

using namespace pgpub;

int main(int argc, char** argv) {
  std::string report_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else {
      std::fprintf(stderr, "usage: %s [--report=PATH] [--trace=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!trace_path.empty()) obs::Tracer::Global().Enable();

  // Examples narrate their run by default; an explicit PGPUB_LOG wins.
  obs::Logger& logger = obs::Logger::Global();
  if (std::getenv("PGPUB_LOG") == nullptr) {
    logger.SetLevel(obs::LogLevel::kInfo);
  }

  HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  const Table& microdata = hospital.table;
  const int sens = HospitalColumns::kDisease;

  std::printf("=== Microdata D (Table Ia) ===\n");
  std::printf("%-8s %-4s %-7s %-8s %s\n", "Owner", "Age", "Gender", "Zipcode",
              "Disease");
  for (size_t r = 0; r < microdata.num_rows(); ++r) {
    std::printf("%-8s %-4s %-7s %-8s %s\n", hospital.owners[r].c_str(),
                microdata.ValueToString(r, 0).c_str(),
                microdata.ValueToString(r, 1).c_str(),
                (microdata.ValueToString(r, 2) + "000").c_str(),
                microdata.ValueToString(r, 3).c_str());
  }

  // ---- Publish with the Table II parameters.
  PgOptions options;
  options.s = 0.5;  // k = ceil(1/s) = 2
  options.p = 0.25;
  options.seed = 2008;
  options.keep_provenance = true;
  RobustPublisher publisher(options);
  PublishReport report;
  Result<PublishedTable> publish_result =
      publisher.Publish(microdata, hospital.TaxonomyPointers(), &report);
  if (!publish_result.ok()) {
    PGPUB_LOG_ERROR("quickstart.publish_failed")
        .Field("status", publish_result.status().ToString());
    return 1;
  }
  PublishedTable published = std::move(publish_result).ValueOrDie();
  PGPUB_LOG_INFO("quickstart.published")
      .Field("rows", static_cast<uint64_t>(published.num_rows()))
      .Field("attempts", static_cast<uint64_t>(report.attempts.size()))
      .Field("audit_clean", report.audit_clean);

  if (!report_path.empty()) {
    const Status written = WritePublishReportJson(report, report_path);
    if (!written.ok()) {
      PGPUB_LOG_ERROR("quickstart.report_failed")
          .Field("path", report_path)
          .Field("status", written.ToString());
      return 1;
    }
    PGPUB_LOG_INFO("quickstart.report_written").Field("path", report_path);
  }

  if (!trace_path.empty()) {
    // The publish is done, so the standalone trace is complete: one
    // robust.publish root with its attempt and phase spans beneath.
    const Status written = obs::WriteChromeTrace(
        obs::Tracer::Global().TakeSnapshot(), trace_path);
    if (!written.ok()) {
      PGPUB_LOG_ERROR("quickstart.trace_failed")
          .Field("path", trace_path)
          .Field("status", written.ToString());
      return 1;
    }
    PGPUB_LOG_INFO("quickstart.trace_written").Field("path", trace_path);
  }

  std::printf("\n=== Published D* (one tuple per QI-group, G column) ===\n");
  std::printf("%-12s %-7s %-12s %-14s %s\n", "Age", "Gender", "Zipcode",
              "Disease", "G");
  for (size_t r = 0; r < published.num_rows(); ++r) {
    std::printf("%-12s %-7s %-12s %-14s %u\n",
                published.RenderQi(r, 0, &hospital.taxonomies[0]).c_str(),
                published.RenderQi(r, 1, &hospital.taxonomies[1]).c_str(),
                published.RenderQi(r, 2, &hospital.taxonomies[2]).c_str(),
                published.domain(sens)
                    .CodeToString(published.sensitive(r))
                    .c_str(),
                published.group_size(r));
  }
  std::printf("|D*| = %zu <= |D| * s = %.1f  (cardinality requirement)\n",
              published.num_rows(), microdata.num_rows() * options.s);

  // ---- The privacy guarantees this (p, k) pair establishes.
  PgParams params;
  params.p = options.p;
  params.k = published.k();
  params.lambda = 0.2;  // defend against 0.2-skewed background knowledge
  params.sensitive_domain_size = microdata.domain(sens).size();
  std::printf("\n=== Guarantees (lambda = %.2f, |U^s| = %d) ===\n",
              params.lambda, params.sensitive_domain_size);
  std::printf("h_top = %.4f\n", HTop(params));
  std::printf("rho1 = 0.2 -> rho2 guarantee: %.4f (Theorem 2)\n",
              MinRho2(params, 0.2));
  std::printf("Delta-growth guarantee: %.4f (Theorem 3)\n", MinDelta(params));

  // ---- Example 1: attack Ellie knowing Debbie's disease and that Emily
  // is extraneous.
  const auto& edb = hospital.voter_list;
  size_t ellie = SIZE_MAX, debbie = SIZE_MAX, emily = SIZE_MAX;
  for (size_t i = 0; i < edb.size(); ++i) {
    if (edb.individual(i).id == "Ellie") ellie = i;
    if (edb.individual(i).id == "Debbie") debbie = i;
    if (edb.individual(i).id == "Emily") emily = i;
  }

  Adversary adversary;
  adversary.victim_prior =
      BackgroundKnowledge::Uniform(microdata.domain(sens).size()).ValueOrDie();
  adversary.corrupted[debbie] =
      microdata.value(edb.individual(debbie).microdata_row, sens);
  adversary.corrupted[emily] = Adversary::kExtraneousMark;

  LinkingAttack attacker =
      LinkingAttack::Create(&published, &edb).ValueOrDie();
  AttackResult attack = attacker.Attack(ellie, adversary).ValueOrDie();

  std::printf("\n=== Example 1: linking attack on Ellie ===\n");
  std::printf("crucial tuple: row %zu (observed Disease = %s, G = %u)\n",
              attack.crucial_row,
              published.domain(sens).CodeToString(attack.observed_y).c_str(),
              attack.g_value);
  std::printf("e = %zu candidates besides Ellie; alpha = %zu corrupted, "
              "beta = %zu insiders; g = %.3f; h = %.4f\n",
              attack.e, attack.alpha, attack.beta, attack.g, attack.h);

  // Q: "Ellie's disease is respiratory" = {bronchitis, pneumonia}.
  std::vector<bool> q(microdata.domain(sens).size(), false);
  q[microdata.domain(sens).dict().Lookup("bronchitis").ValueOrDie()] = true;
  q[microdata.domain(sens).dict().Lookup("pneumonia").ValueOrDie()] = true;
  std::printf("P_prior(Q=respiratory) = %.4f\n",
              adversary.victim_prior.Confidence(q).ValueOrDie());
  std::printf("P_post(Q=respiratory)  = %.4f\n", attack.Confidence(q).ValueOrDie());
  std::printf("max growth over any Q  = %.4f (bound %.4f)\n",
              attack.MaxGrowth(adversary.victim_prior).ValueOrDie(), MinDelta(params));
  return 0;
}
