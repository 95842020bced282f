#include "store/recovery.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace fa::store {

using fault::ErrCode;
using fault::Status;

fault::Result<Generation> recover_newest(const StoreDir& dir,
                                         const GenerationLoader& load,
                                         RecoveryReport* report) {
  obs::Span span(obs::metrics::kStoreRecoverNs);
  Manifest manifest;
  auto from_manifest = dir.read_manifest();
  if (from_manifest.ok()) {
    manifest = std::move(from_manifest.value());
  } else {
    obs::count(obs::metrics::kStoreManifestFallbacks);
    if (report) {
      report->manifest_fallback = true;
      report->steps.push_back(from_manifest.status());
    }
    manifest = dir.scan();
  }
  if (manifest.generations.empty()) {
    return Status::error(ErrCode::kIoFailure, 0, dir.path(),
                         "store holds no generations");
  }
  Status last;
  for (auto it = manifest.generations.rbegin();
       it != manifest.generations.rend(); ++it) {
    obs::count(obs::metrics::kStoreRecoverAttempts);
    const Status loaded = load(*it);
    if (loaded.ok()) {
      obs::count(obs::metrics::kStoreRecoverLoaded);
      if (report) {
        Status okstep;
        okstep.source = dir.file_path(it->filename);
        okstep.message = "loaded";
        report->steps.push_back(okstep);
      }
      return *it;
    }
    obs::count(obs::metrics::kStoreRecoverRejected);
    last = loaded;
    if (report) report->steps.push_back(last);
  }
  last.message = "every generation rejected; newest failure: " + last.message;
  return last;
}

}  // namespace fa::store
