// StudyGenerator: turns a StudyConfig + AppCatalog into the full synthetic
// trace stream, replacing the paper's proprietary 22-month user study
// (DESIGN.md §1). Deterministic: identical (config, catalog) => identical
// byte-for-byte stream.
#pragma once

#include "appmodel/catalog.h"
#include "sim/study_config.h"
#include "trace/batch.h"
#include "trace/sink.h"
#include "trace/trace_source.h"

namespace wildenergy::sim {

class StudyGenerator : public trace::TraceSource {
 public:
  /// Uses appmodel::AppCatalog::full_catalog(config.seed, config.total_apps).
  explicit StudyGenerator(StudyConfig config);
  /// Uses a caller-provided catalog (e.g. paper_catalog() for case studies).
  StudyGenerator(StudyConfig config, appmodel::AppCatalog catalog);

  /// Generate the whole study into `sink`: users in id order, each user's
  /// packets and transitions in non-decreasing time order, delivered via
  /// sink.on_batch in spans of `batch_size` (≥ 1) events; brackets are
  /// separate callbacks. Outputs are bit-identical for every batch size.
  void run(trace::TraceSink& sink, std::size_t batch_size = trace::kDefaultBatchSize) const;

  /// Generate only one user's stream (still bracketed by study begin/end).
  /// Used by tests and by per-user parallel analyses.
  void run_user(trace::UserId user, trace::TraceSink& sink,
                std::size_t batch_size = trace::kDefaultBatchSize) const;

  // TraceSource: the generator is the synthetic-study source. Generation is
  // deterministic and repeatable, so emit()/emit_user() always succeed and
  // per-user random access is free.
  util::Status emit(trace::TraceSink& sink, std::size_t batch_size) override {
    run(sink, batch_size);
    return util::Status::ok_status();
  }
  util::Status emit_user(trace::UserId user, trace::TraceSink& sink,
                         std::size_t batch_size) override {
    run_user(user, sink, batch_size);
    return util::Status::ok_status();
  }
  [[nodiscard]] bool supports_user_access() const override { return true; }

  [[nodiscard]] const StudyConfig& config() const { return config_; }
  [[nodiscard]] const appmodel::AppCatalog& catalog() const { return catalog_; }
  [[nodiscard]] trace::StudyMeta meta() const override;

 private:
  StudyConfig config_;
  appmodel::AppCatalog catalog_;
};

}  // namespace wildenergy::sim
