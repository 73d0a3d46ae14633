#ifndef STHSL_SERVE_BUNDLE_H_
#define STHSL_SERVE_BUNDLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sthsl_model.h"
#include "util/status.h"

namespace sthsl::serve {

/// Everything the serving layer must know to answer predictions from a
/// trained ST-HSL model without the training dataset: architecture, input
/// window length, grid geometry, the exact normalization moments baked into
/// the network, and provenance. Serialized as `manifest.json` next to the
/// `SaveCheckpoint` weights file inside a bundle directory.
struct BundleManifest {
  int64_t schema = 1;
  std::string model;  // forecaster display name, e.g. "ST-HSL"

  /// Full model configuration; `config.train.window` is the input window
  /// length W every request must supply.
  SthslConfig config;

  // Dataset geometry the model was trained on.
  std::string city;
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t categories = 0;
  std::vector<std::string> category_names;

  /// Z-score moments captured from the trained network itself (not
  /// recomputed from data), so a reloaded model normalizes bit-identically.
  float mean = 0.0f;
  float stddev = 1.0f;

  // Provenance.
  int64_t generator_seed = -1;  // synthetic-data seed; -1 when unknown
  uint64_t train_seed = 0;
  std::string git_hash;     // "unknown" when not recorded
  std::string created_utc;  // ISO-8601, filled by WriteBundle
  std::string tool;         // producer, e.g. "sthsl_cli export-bundle"

  std::string weights_file = "weights.bin";

  int64_t num_regions() const { return rows * cols; }
  /// Expected request window shape (R, W, C).
  std::vector<int64_t> WindowShape() const {
    return {num_regions(), config.train.window, categories};
  }
};

/// A bundle pulled back into memory: the manifest plus a materialized
/// forecaster with the checkpoint weights loaded.
struct LoadedBundle {
  BundleManifest manifest;
  std::unique_ptr<SthslForecaster> model;
};

/// Writes `model` (which must be fitted / materialized) as a bundle
/// directory at `dir`: `manifest.json` + `weights.bin`. Creates the
/// directory if needed. Geometry and moments are read from the network;
/// provenance fields (`city`, seeds, `git_hash`, `tool`) come from
/// `provenance` — geometry/moment fields of `provenance` are ignored.
Status WriteBundle(const SthslForecaster& model, const std::string& dir,
                   const BundleManifest& provenance);

/// Parses and validates `dir`/manifest.json alone (no weights load). Every
/// missing or mistyped field is an InvalidArgument naming the field.
Result<BundleManifest> ReadManifest(const std::string& dir);

/// Loads a full bundle: manifest + weights, strictly validated (the
/// checkpoint must match the declared architecture parameter-for-parameter).
Result<LoadedBundle> LoadBundle(const std::string& dir);

}  // namespace sthsl::serve

#endif  // STHSL_SERVE_BUNDLE_H_
