#include "engine/engine.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"

namespace pitract {
namespace engine {

Result<BatchResult> RunBatch(BatchPath* path) {
  BatchResult result;
  CostMeter prepare_meter;
  auto outcome = path->Prepare(&prepare_meter);
  if (!outcome.ok()) return outcome.status();
  result.prepare_runs = outcome->ran_pi ? 1 : 0;
  result.cache_hit = outcome->cache_hit;
  result.prepare_cost = prepare_meter.cost();

  const int n = path->num_queries();
  result.answers.reserve(static_cast<size_t>(n));
  CostMeter answer_meter;
  auto handled =
      path->TryAnswerAll(&result.answers, &result.mode, &answer_meter);
  if (!handled.ok()) return handled.status();
  if (!*handled) {
    for (int qi = 0; qi < n; ++qi) {
      auto answer = path->AnswerOne(qi, &answer_meter);
      if (!answer.ok()) return answer.status();
      result.answers.push_back(*answer);
    }
    result.mode = BatchAnswerMode::kScalar;
  }
  result.answer_cost = answer_meter.cost();
  result.answer_bytes_read = answer_meter.bytes_read();
  return result;
}

namespace {

/// The store-entry knobs one witness candidate supplies for its Π(D)
/// payloads: the decoded-view builder when the witness carries one, plus
/// the tiering layer's expected-loss estimates sized from the candidate's
/// cost descriptor (view loss ≈ the decode the store would re-pay, evict
/// loss ≈ the Π rebuild).
PreparedStore::EntryOptions MakeEntryOptions(
    const core::PiWitness& witness, const PreparedStore::SizeFn* size_of,
    bool spillable, const CostDescriptor* descriptor, size_t data_bytes) {
  PreparedStore::EntryOptions options;
  if (size_of != nullptr && *size_of) options.size_of = *size_of;
  options.spillable = spillable;
  if (witness.has_view()) options.make_view = witness.deserialize;
  if (descriptor != nullptr) {
    options.evict_loss_ops = descriptor->BuildOps(data_bytes);
    options.view_loss_ops = descriptor->Bytes(data_bytes);
  }
  return options;
}

/// The store's ComputeFn for Π(data) under `witness`. On success the
/// charged build ops land in `*build_ops`, so the caller can record the
/// build once the store has charged the entry (see RecordMeasuredBuild).
PreparedStore::ComputeFn MeasuredCompute(const core::PiWitness& witness,
                                         const std::string& data,
                                         int64_t* build_ops) {
  return [&witness, &data, build_ops](CostMeter* m) -> Result<std::string> {
    CostMeter local;
    auto built = witness.preprocess(data, &local);
    if (m != nullptr) m->MergeFrom(local);
    if (built.ok()) *build_ops = local.work();
    return built;
  };
}

/// Feeds a build that ran into the witness's profile, with the bytes the
/// store charged for the entry (payload plus view) as its measured size.
void RecordMeasuredBuild(CostProfile* profile, size_t data_bytes,
                         const PreparedStore::PreparedView& view,
                         int64_t build_ops) {
  if (profile != nullptr && build_ops >= 0) {
    profile->RecordBuild(data_bytes, view.charged_bytes, build_ops);
  }
}

/// Σ*-string path: Π through the PreparedStore, answers via the *selected*
/// witness (primary or a registered alternative) — through the memoized
/// decoded view when that witness provides one, else via the string
/// `answer` hook. The caller resolves which witness a key names and hands
/// in its hooks, entry options, and measured-cost profile.
class WitnessBatchPath : public BatchPath {
 public:
  /// Blocking flavor: Π(data) under `key`, which the caller built (or took
  /// from a handle's route) and which names `witness`.
  WitnessBatchPath(const core::PiWitness& witness, CostProfile* profile,
                   PreparedStore::EntryOptions entry_options,
                   PreparedStore* store, const std::string& data,
                   const PreparedStore::Key& key,
                   std::span<const std::string> queries,
                   const AnswerOptions& options)
      : witness_(witness),
        profile_(profile),
        entry_options_(std::move(entry_options)),
        store_(store),
        data_(&data),
        key_(&key),
        queries_(queries),
        options_(options) {}
  /// Warm-probe flavor (TryAnswerWarm): the caller already fetched the
  /// entry's PreparedView from the published snapshot, so Prepare charges
  /// the probe op and serves it — no second store lookup, no second hit
  /// counted.
  WitnessBatchPath(const core::PiWitness& witness, CostProfile* profile,
                   PreparedStore* store, PreparedStore::PreparedView prefetched,
                   std::span<const std::string> queries,
                   const AnswerOptions& options)
      : witness_(witness),
        profile_(profile),
        store_(store),
        queries_(queries),
        options_(options),
        prefetched_(std::move(prefetched)),
        have_prefetched_(true) {}

  Result<PrepareOutcome> Prepare(CostMeter* meter) override {
    if (have_prefetched_) {
      prepared_ = std::move(prefetched_.prepared);
      view_ = std::move(prefetched_.view);
      // Parity with a served snapshot hit: ServeHit already counted the
      // store-side hit when the caller probed; the batch still charges
      // the one probe op so warm prepare_cost matches the blocking path.
      if (meter != nullptr) meter->AddSerial(1);
      return PrepareOutcome{/*ran_pi=*/false, /*cache_hit=*/true};
    }
    bool hit = false;
    int64_t build_ops = -1;
    auto prepared = store_->GetOrComputeView(
        *key_, MeasuredCompute(witness_, *data_, &build_ops), meter, &hit,
        entry_options_);
    if (!prepared.ok()) return prepared.status();
    RecordMeasuredBuild(profile_, data_->size(), *prepared, build_ops);
    prepared_ = std::move(prepared->prepared);
    view_ = std::move(prepared->view);
    return PrepareOutcome{/*ran_pi=*/!hit, /*cache_hit=*/hit};
  }

  Result<bool> AnswerOne(int qi, CostMeter* meter) override {
    const std::string& query = queries_[static_cast<size_t>(qi)];
    if (view_ != nullptr && witness_.answer_view) {
      return witness_.answer_view(view_.get(), query, meter);
    }
    return witness_.answer(*prepared_, query, meter);
  }

  /// Amortized batch path: every query of the batch is decoded exactly
  /// once up front (one reusable int64 scratch buffer, no per-query
  /// re-parsing), then the whole span is answered by the witness's batch
  /// kernel when it has one, else by the decoded-scalar loop.
  Result<bool> TryAnswerAll(std::vector<bool>* answers, BatchAnswerMode* mode,
                            CostMeter* meter) override {
    const core::PiWitness& w = witness_;
    if (view_ == nullptr) return false;
    const bool kernel = w.has_batch_kernel();
    if (!kernel && !w.has_decoded_answer()) return false;

    const size_t n = queries_.size();
    decoded_.resize(n);
    int_scratch_.clear();
    for (size_t i = 0; i < n; ++i) {
      // First decode error fails the batch, matching the scalar loop's
      // first-error-wins contract (the scalar path would have failed on
      // the same query's parse).
      PITRACT_RETURN_IF_ERROR(
          w.decode_query(queries_[i], &decoded_[i], &int_scratch_));
    }

    answers->clear();
    answers->reserve(n);
    if (kernel) {
      raw_answers_.resize(n);
      if (options_.sort_probes && n >= AnswerOptions::kSortProbesMinBatch) {
        // Access-locality scheduling: probe the view in address order, not
        // arrival order. The permutation is applied to a copy of the
        // decoded span (so the kernel still sees a contiguous span) and
        // inverted on the 0/1 answers, which is cheap — answers are one
        // byte each, queries sixteen.
        perm_.resize(n);
        for (size_t i = 0; i < n; ++i) perm_[i] = i;
        std::sort(perm_.begin(), perm_.end(), [this](size_t x, size_t y) {
          const core::DecodedQuery& qx = decoded_[x];
          const core::DecodedQuery& qy = decoded_[y];
          return qx.a != qy.a ? qx.a < qy.a : qx.b < qy.b;
        });
        sorted_.resize(n);
        for (size_t i = 0; i < n; ++i) sorted_[i] = decoded_[perm_[i]];
        sorted_answers_.resize(n);
        PITRACT_RETURN_IF_ERROR(w.answer_view_batch(
            view_.get(), sorted_, std::span<uint8_t>(sorted_answers_),
            meter));
        for (size_t i = 0; i < n; ++i) {
          raw_answers_[perm_[i]] = sorted_answers_[i];
        }
      } else {
        PITRACT_RETURN_IF_ERROR(w.answer_view_batch(
            view_.get(), decoded_, std::span<uint8_t>(raw_answers_), meter));
      }
      answers->assign(raw_answers_.begin(), raw_answers_.end());
      *mode = BatchAnswerMode::kKernel;
      return true;
    }
    for (size_t i = 0; i < n; ++i) {
      auto answer = w.answer_view_decoded(view_.get(), decoded_[i], meter);
      if (!answer.ok()) return answer.status();
      answers->push_back(*answer);
    }
    *mode = BatchAnswerMode::kPreDecoded;
    return true;
  }

  int num_queries() const override {
    return static_cast<int>(queries_.size());
  }

 private:
  const core::PiWitness& witness_;
  CostProfile* profile_ = nullptr;
  PreparedStore::EntryOptions entry_options_;
  PreparedStore* store_;
  const std::string* data_ = nullptr;
  const PreparedStore::Key* key_ = nullptr;
  std::span<const std::string> queries_;
  AnswerOptions options_;
  PreparedStore::PreparedView prefetched_;
  bool have_prefetched_ = false;
  std::shared_ptr<const std::string> prepared_;
  std::shared_ptr<const void> view_;
  // Per-batch scratch (decoded queries, int64 decode buffer, kernel 0/1
  // output, probe-order permutation) — sized once per batch, reused
  // across its queries.
  std::vector<core::DecodedQuery> decoded_;
  std::vector<int64_t> int_scratch_;
  std::vector<uint8_t> raw_answers_;
  std::vector<size_t> perm_;
  std::vector<core::DecodedQuery> sorted_;
  std::vector<uint8_t> sorted_answers_;
};

/// Typed path: the deployed in-memory case behind the same interface.
class TypedCaseBatchPath : public BatchPath {
 public:
  TypedCaseBatchPath(core::QueryClassCase* instance, bool already_prepared)
      : instance_(instance), already_prepared_(already_prepared) {}

  Result<PrepareOutcome> Prepare(CostMeter* meter) override {
    if (already_prepared_) {
      if (meter != nullptr) meter->AddSerial(1);  // the cache probe
      return PrepareOutcome{/*ran_pi=*/false, /*cache_hit=*/true};
    }
    PITRACT_RETURN_IF_ERROR(instance_->Preprocess(meter));
    return PrepareOutcome{/*ran_pi=*/true, /*cache_hit=*/false};
  }

  Result<bool> AnswerOne(int qi, CostMeter* meter) override {
    return instance_->AnswerPrepared(qi, meter);
  }

  int num_queries() const override { return instance_->num_queries(); }

 private:
  core::QueryClassCase* instance_;
  bool already_prepared_;
};

}  // namespace

QueryEngine::QueryEngine(size_t store_capacity, size_t typed_capacity)
    : store_(store_capacity), typed_capacity_(typed_capacity) {}

QueryEngine::QueryEngine(const PreparedStore::Options& store_options,
                         size_t typed_capacity)
    : store_(store_options), typed_capacity_(typed_capacity) {}

uint64_t QueryEngine::PartFingerprint(std::string_view data) {
  return Fnv1a64(data);
}

WitnessRoute::WitnessRoute(PreparedStore::Key key) {
  keys_.push_back(std::make_unique<const PreparedStore::Key>(std::move(key)));
  current_.store(keys_.back().get(), std::memory_order_release);
}

void WitnessRoute::Switch(PreparedStore::Key key) {
  std::lock_guard<std::mutex> lock(mutex_);
  keys_.push_back(std::make_unique<const PreparedStore::Key>(std::move(key)));
  current_.store(keys_.back().get(), std::memory_order_release);
}

QueryEngine::SelectedWitness QueryEngine::CandidateAt(
    const ProblemEntry& entry, int index) {
  SelectedWitness s;
  if (index <= 0 || entry.alternatives.empty()) {
    s.witness = &entry.witness;
    s.descriptor = &entry.witness_descriptor;
    s.profile = entry.witness_profile.get();
    s.patch = &entry.prepared_patch;
    s.size_of = &entry.prepared_size_of;
    s.index = 0;
    return s;
  }
  const int alt =
      std::min<int>(index, static_cast<int>(entry.alternatives.size())) - 1;
  const WitnessAlternative& a = entry.alternatives[static_cast<size_t>(alt)];
  s.witness = &a.witness;
  s.descriptor = &a.descriptor;
  s.profile = a.profile.get();
  s.patch = &a.prepared_patch;
  s.size_of = &a.prepared_size_of;
  s.index = alt + 1;
  return s;
}

QueryEngine::SelectedWitness QueryEngine::ResolveWitnessFromKey(
    const ProblemEntry& entry, const PreparedStore::Key& key) {
  if (key.bytes != nullptr && !entry.alternatives.empty()) {
    // Keys are `problem \x1f witness \x1f data`; the name between the
    // separators says which candidate's hooks built (and can decode) the
    // payload this key addresses.
    const std::string_view bytes(*key.bytes);
    const size_t first = bytes.find('\x1f');
    if (first != std::string_view::npos) {
      const size_t second = bytes.find('\x1f', first + 1);
      if (second != std::string_view::npos) {
        const std::string_view name =
            bytes.substr(first + 1, second - first - 1);
        if (name != entry.witness.name) {
          for (size_t i = 0; i < entry.alternatives.size(); ++i) {
            if (entry.alternatives[i].witness.name == name) {
              return CandidateAt(entry, static_cast<int>(i) + 1);
            }
          }
        }
      }
    }
  }
  return CandidateAt(entry, 0);
}

QueryEngine::SelectedWitness QueryEngine::SelectWitness(
    const ProblemEntry& entry, const std::string* data,
    uint64_t part_fingerprint) const {
  const CostModel::Policy policy = cost_model_.policy();
  if (entry.alternatives.empty() ||
      policy == CostModel::Policy::kPrimaryOnly) {
    return CandidateAt(entry, 0);
  }
  if (policy == CostModel::Policy::kAdaptive && part_fingerprint != 0) {
    const int cached = cost_model_.ChoiceFor(part_fingerprint);
    if (cached >= 0) return CandidateAt(entry, cached);
  }
  const size_t data_bytes = data != nullptr ? data->size() : 0;
  std::vector<CostModel::Candidate> candidates;
  candidates.reserve(entry.alternatives.size() + 1);
  for (int i = 0; i <= static_cast<int>(entry.alternatives.size()); ++i) {
    const SelectedWitness s = CandidateAt(entry, i);
    CostModel::Candidate c;
    c.name = s.witness->name;
    c.descriptor = s.descriptor;
    c.profile = s.profile;
    c.resident = data != nullptr &&
                 store_.Contains(entry.name, s.witness->name, *data);
    candidates.push_back(c);
  }
  const int choice = cost_model_.Select(candidates, data_bytes,
                                        part_fingerprint, BytePressure());
  if (policy == CostModel::Policy::kAdaptive && part_fingerprint != 0) {
    cost_model_.SetChoice(part_fingerprint, choice);
  }
  return CandidateAt(entry, choice);
}

double QueryEngine::BytePressure() const {
  if (store_.options().byte_budget == 0) return 0.0;
  return std::min(1.0, static_cast<double>(store_.bytes_resident()) /
                           static_cast<double>(store_.options().byte_budget));
}

int QueryEngine::NoteAnswered(const ProblemEntry& entry,
                              const SelectedWitness& selected,
                              uint64_t part_fingerprint, size_t data_bytes,
                              int64_t queries, int64_t answer_ops) {
  if (selected.profile != nullptr && queries > 0) {
    selected.profile->RecordAnswer(queries, answer_ops);
  }
  if (entry.alternatives.empty() || part_fingerprint == 0) return -1;
  if (cost_model_.policy() != CostModel::Policy::kAdaptive) return -1;
  if (!cost_model_.NoteTraffic(part_fingerprint, queries)) return -1;
  // Doubling boundary crossed: score the part again with the fresh traffic
  // count. The witness this batch was answered from is resident by
  // construction and is the incumbent; every other candidate is priced
  // with its build, so no store probe runs here.
  std::vector<CostModel::Candidate> candidates;
  candidates.reserve(entry.alternatives.size() + 1);
  for (int i = 0; i <= static_cast<int>(entry.alternatives.size()); ++i) {
    const SelectedWitness s = CandidateAt(entry, i);
    candidates.push_back(
        {s.witness->name, s.descriptor, s.profile, i == selected.index});
  }
  const int target =
      cost_model_.Select(candidates, data_bytes, part_fingerprint,
                         BytePressure(), selected.index);
  if (target == selected.index) return -1;
  // Charge the upgrade against the byte budget: growth the budget has no
  // room for would only evict other warm parts, whose rebuilds cost more
  // than this part's faster answers save.
  const size_t budget = store_.options().byte_budget;
  if (budget > 0) {
    const double growth =
        CostModel::ExpectedBytes(candidates[static_cast<size_t>(target)],
                                 data_bytes) -
        CostModel::ExpectedBytes(
            candidates[static_cast<size_t>(selected.index)], data_bytes);
    if (growth > 0 && static_cast<double>(store_.bytes_resident()) + growth >
                          static_cast<double>(budget)) {
      return -1;
    }
  }
  std::lock_guard<std::mutex> lock(upgrade_mutex_);
  if (!upgrading_.insert(part_fingerprint).second) return -1;
  return target;
}

void QueryEngine::QueueUpgrade(UpgradeJob job) {
  std::lock_guard<std::mutex> lock(upgrade_mutex_);
  upgrade_queue_.push_back(std::move(job));
  queued_upgrades_.fetch_add(1);
}

UpgradeOutcome QueryEngine::RunPendingUpgrade(CostMeter* meter) {
  UpgradeOutcome outcome;
  UpgradeJob job;
  {
    std::lock_guard<std::mutex> lock(upgrade_mutex_);
    if (upgrade_queue_.empty()) return outcome;
    job = std::move(upgrade_queue_.front());
    upgrade_queue_.pop_front();
    queued_upgrades_.fetch_sub(1);
  }
  return RunUpgrade(job, meter);
}

UpgradeOutcome QueryEngine::RunUpgrade(const UpgradeJob& job,
                                       CostMeter* meter) {
  UpgradeOutcome outcome;
  // A batch answered from the old witness can cross a doubling just after
  // an upgrade of its part completed; its job finds the part moved on and
  // is dropped.
  const bool moved_on =
      job.route != nullptr
          ? job.route->key().bytes != job.from_key.bytes
          : cost_model_.ChoiceFor(job.part_fingerprint) == job.to;
  if (moved_on) {
    std::lock_guard<std::mutex> lock(upgrade_mutex_);
    upgrading_.erase(job.part_fingerprint);
    return outcome;
  }
  outcome.ran = true;
  const ProblemEntry& entry = *job.entry;
  const SelectedWitness to = CandidateAt(entry, job.to);
  Status& status = outcome.status;
  if (PITRACT_FAILPOINT("engine.witness_upgrade")) {
    status = Status::Internal("failpoint engine.witness_upgrade fired");
  } else {
    PreparedStore::Key key =
        store_.BuildKeyCounted(entry.name, to.witness->name, *job.data);
    status = PrepareWith(entry, to, job.data, key, meter, &outcome.ran_pi);
    if (status.ok()) {
      // The upgraded entry is published before anything points at it, so
      // a reader that follows the switched route hits it warm; a reader
      // still on the old key finds the old entry, retired but resident.
      if (job.route != nullptr) job.route->Switch(std::move(key));
      cost_model_.SetChoice(job.part_fingerprint, job.to);
      store_.Retire(job.from_key);
    }
  }
  {
    std::lock_guard<std::mutex> lock(upgrade_mutex_);
    upgrading_.erase(job.part_fingerprint);
  }
  (status.ok() ? upgrades_ : upgrade_failures_)
      .fetch_add(1, std::memory_order_relaxed);
  return outcome;
}

Status QueryEngine::Register(ProblemEntry entry) {
  if (entry.name.empty()) {
    return Status::InvalidArgument("problem entry needs a name");
  }
  if (!entry.has_language && !entry.make_case) {
    return Status::InvalidArgument("entry '" + entry.name +
                                   "' registers neither a language nor a "
                                   "typed case");
  }
  if (!entry.has_language && !entry.alternatives.empty()) {
    return Status::InvalidArgument("entry '" + entry.name +
                                   "' registers witness alternatives without "
                                   "a Σ*-level witness");
  }
  for (const WitnessAlternative& alt : entry.alternatives) {
    if (alt.witness.name.empty() || alt.witness.name == entry.witness.name) {
      return Status::InvalidArgument(
          "entry '" + entry.name +
          "' has a witness alternative without a distinct name");
    }
  }
  // Every candidate gets a measured-cost profile so selection can learn
  // from real builds/answers without registration boilerplate.
  if (entry.has_language && entry.witness_profile == nullptr) {
    entry.witness_profile = std::make_shared<CostProfile>();
  }
  for (WitnessAlternative& alt : entry.alternatives) {
    if (alt.profile == nullptr) alt.profile = std::make_shared<CostProfile>();
  }
  std::unique_lock<std::shared_mutex> lock(registry_mutex_);
  auto [it, inserted] = entries_.emplace(entry.name, std::move(entry));
  if (!inserted) {
    return Status::AlreadyExists("problem '" + it->first +
                                 "' already registered");
  }
  return Status::OK();
}

Status QueryEngine::RegisterViaReduction(std::string name,
                                         std::string paper_anchor,
                                         core::DecisionProblem source,
                                         const core::NcFactorReduction& r,
                                         std::string_view target) {
  auto target_entry = Find(target);
  if (!target_entry.ok()) return target_entry.status();
  if (!(*target_entry)->has_language) {
    return Status::FailedPrecondition("reduction target '" +
                                      std::string(target) +
                                      "' has no Σ*-level witness");
  }
  if ((*target_entry)->factorization.name != r.target_factorization.name) {
    return Status::InvalidArgument(
        "reduction '" + r.name + "' targets factorization " +
        r.target_factorization.name + " but '" + std::string(target) +
        "' is registered under " + (*target_entry)->factorization.name);
  }
  ProblemEntry entry;
  entry.name = std::move(name);
  entry.paper_anchor = std::move(paper_anchor);
  entry.has_language = true;
  entry.problem = std::move(source);
  entry.factorization = r.source_factorization;
  entry.witness = core::Transport(r, (*target_entry)->witness);
  return Register(std::move(entry));
}

Status QueryEngine::RegisterViaFReduction(
    std::string name, std::string paper_anchor, core::DecisionProblem source,
    core::Factorization source_factorization, const core::FReduction& r,
    std::string_view target) {
  auto target_entry = Find(target);
  if (!target_entry.ok()) return target_entry.status();
  if (!(*target_entry)->has_language) {
    return Status::FailedPrecondition("F-reduction target '" +
                                      std::string(target) +
                                      "' has no Σ*-level witness");
  }
  ProblemEntry entry;
  entry.name = std::move(name);
  entry.paper_anchor = std::move(paper_anchor);
  entry.has_language = true;
  entry.problem = std::move(source);
  entry.factorization = std::move(source_factorization);
  entry.witness = core::TransportF(r, (*target_entry)->witness);
  return Register(std::move(entry));
}

Result<const ProblemEntry*> QueryEngine::Find(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no problem registered as '" + std::string(name) +
                            "'");
  }
  // Map nodes are never erased, so the pointer stays valid after unlock.
  return &it->second;
}

std::vector<std::string> QueryEngine::Names() const {
  std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

Result<BatchResult> QueryEngine::AnswerBatch(
    std::string_view problem, const std::string& data,
    std::span<const std::string> queries) {
  return AnswerBatch(problem, data, queries, AnswerOptions{});
}

Result<BatchResult> QueryEngine::AnswerBatch(
    std::string_view problem, const std::string& data,
    std::span<const std::string> queries, const AnswerOptions& options) {
  auto entry = Find(problem);
  if (!entry.ok()) return entry.status();
  if (!(*entry)->has_language) {
    return Status::FailedPrecondition("problem '" + std::string(problem) +
                                      "' has no Σ*-level witness");
  }
  // Selection (and its O(|D|) fingerprint) only runs when this entry has
  // alternatives and the model is live; the single-witness path is
  // byte-for-byte the pre-adaptive one.
  uint64_t fp = 0;
  if (!(*entry)->alternatives.empty() &&
      cost_model_.policy() != CostModel::Policy::kPrimaryOnly) {
    fp = PartFingerprint(data);
  }
  const SelectedWitness sel = SelectWitness(**entry, &data, fp);
  // The one O(|D|) key build a string-keyed batch pays.
  PreparedStore::Key key =
      store_.BuildKeyCounted((*entry)->name, sel.witness->name, data);
  WitnessBatchPath path(
      *sel.witness, sel.profile,
      MakeEntryOptions(*sel.witness, sel.size_of, (*entry)->spillable,
                       sel.descriptor, data.size()),
      &store_, data, key, queries, options);
  auto result = RunBatch(&path);
  if (!result.ok()) return result;
  const int upgrade = NoteAnswered(**entry, sel, fp, data.size(),
                                   static_cast<int64_t>(queries.size()),
                                   result->answer_cost.work);
  if (upgrade >= 0) {
    // A blocking caller pays Π inline on its own miss; it pays an upgrade
    // it triggers the same way, after its batch is answered. The outcome
    // is the upgrade's, not the batch's: a failed one leaves the old
    // witness serving.
    (void)RunUpgrade({*entry, std::make_shared<const std::string>(data),
                      nullptr, std::move(key), upgrade, fp},
                     nullptr);
  }
  return result;
}

Result<DataHandle> QueryEngine::Intern(std::string_view problem,
                                       std::string data) const {
  auto entry = Find(problem);
  if (!entry.ok()) return entry.status();
  if (!(*entry)->has_language) {
    return Status::FailedPrecondition("problem '" + std::string(problem) +
                                      "' has no Σ*-level witness");
  }
  DataHandle handle;
  handle.problem = std::string(problem);
  handle.data = std::make_shared<const std::string>(std::move(data));
  handle.part_fingerprint = PartFingerprint(*handle.data);
  // Admission is where the solver earns its keep: the handle's key embeds
  // the witness the cost model picked for this part, and every later batch
  // over the handle flows through that choice with zero re-selection work.
  const SelectedWitness sel =
      SelectWitness(**entry, handle.data.get(), handle.part_fingerprint);
  handle.key = PreparedStore::InternKey((*entry)->name, sel.witness->name,
                                        *handle.data);
  handle.route = std::make_shared<WitnessRoute>(handle.key);
  return handle;
}

Result<BatchResult> QueryEngine::AnswerBatch(
    const DataHandle& handle, std::span<const std::string> queries) {
  return AnswerBatch(handle, queries, AnswerOptions{});
}

Result<BatchResult> QueryEngine::AnswerBatch(
    const DataHandle& handle, std::span<const std::string> queries,
    const AnswerOptions& options) {
  if (handle.data == nullptr || handle.key.bytes == nullptr) {
    return Status::InvalidArgument("empty DataHandle (use Intern)");
  }
  auto entry = Find(handle.problem);
  if (!entry.ok()) return entry.status();
  if (!(*entry)->has_language) {
    return Status::FailedPrecondition("problem '" + handle.problem +
                                      "' has no Σ*-level witness");
  }
  // Answer hooks come from the witness the route's current key names,
  // never from the current selection: the key says what the payload is.
  const PreparedStore::Key& key = handle.current_key();
  const SelectedWitness sel = ResolveWitnessFromKey(**entry, key);
  WitnessBatchPath path(
      *sel.witness, sel.profile,
      MakeEntryOptions(*sel.witness, sel.size_of, (*entry)->spillable,
                       sel.descriptor, handle.data->size()),
      &store_, *handle.data, key, queries, options);
  auto result = RunBatch(&path);
  if (!result.ok()) return result;
  const int upgrade =
      NoteAnswered(**entry, sel, handle.part_fingerprint, handle.data->size(),
                   static_cast<int64_t>(queries.size()),
                   result->answer_cost.work);
  if (upgrade >= 0) {
    // Inline, as on the string-keyed blocking face.
    (void)RunUpgrade({*entry, handle.data, handle.route, key, upgrade,
                      handle.part_fingerprint},
                     nullptr);
  }
  return result;
}

Result<bool> QueryEngine::TryAnswerWarm(const DataHandle& handle,
                                        std::span<const std::string> queries,
                                        const AnswerOptions& options,
                                        BatchResult* result) {
  if (handle.data == nullptr || handle.key.bytes == nullptr) {
    return Status::InvalidArgument("empty DataHandle (use Intern)");
  }
  auto entry = Find(handle.problem);
  if (!entry.ok()) return entry.status();
  if (!(*entry)->has_language) {
    return Status::FailedPrecondition("problem '" + handle.problem +
                                      "' has no Σ*-level witness");
  }
  // One acquire load: the key the part answers from now.
  const PreparedStore::Key& key = handle.current_key();
  const SelectedWitness sel = ResolveWitnessFromKey(**entry, key);
  PreparedStore::PreparedView view;
  if (!store_.TryGetView(key,
                         MakeEntryOptions(*sel.witness, sel.size_of,
                                          (*entry)->spillable, sel.descriptor,
                                          handle.data->size()),
                         nullptr, &view)) {
    return false;  // cold: the caller parks the batch and prepares off-path
  }
  WitnessBatchPath path(*sel.witness, sel.profile, &store_, std::move(view),
                        queries, options);
  auto answered = RunBatch(&path);
  if (!answered.ok()) return answered.status();
  const int upgrade =
      NoteAnswered(**entry, sel, handle.part_fingerprint, handle.data->size(),
                   static_cast<int64_t>(queries.size()),
                   answered->answer_cost.work);
  if (upgrade >= 0) {
    QueueUpgrade({*entry, handle.data, handle.route, key, upgrade,
                  handle.part_fingerprint});
    answered->upgrade_queued = true;
  }
  *result = std::move(answered).value();
  return true;
}

Result<bool> QueryEngine::TryAnswerWarm(std::string_view problem,
                                        const std::string& data,
                                        std::span<const std::string> queries,
                                        const AnswerOptions& options,
                                        BatchResult* result,
                                        PreparedStore::Key* cold_key) {
  auto entry = Find(problem);
  if (!entry.ok()) return entry.status();
  if (!(*entry)->has_language) {
    return Status::FailedPrecondition("problem '" + std::string(problem) +
                                      "' has no Σ*-level witness");
  }
  uint64_t fp = 0;
  if (!(*entry)->alternatives.empty() &&
      cost_model_.policy() != CostModel::Policy::kPrimaryOnly) {
    fp = PartFingerprint(data);
  }
  const SelectedWitness sel = SelectWitness(**entry, &data, fp);
  // The one O(|D|) key build this call pays, counted like every other
  // string-keyed admission; a parked caller hands the key to its preparer
  // so the bytes are never hashed twice — and the key carries the solver's
  // witness choice, so the preparer builds the Π that was selected here.
  PreparedStore::Key key =
      store_.BuildKeyCounted((*entry)->name, sel.witness->name, data);
  PreparedStore::PreparedView view;
  if (!store_.TryGetView(key,
                         MakeEntryOptions(*sel.witness, sel.size_of,
                                          (*entry)->spillable, sel.descriptor,
                                          data.size()),
                         nullptr, &view)) {
    if (cold_key != nullptr) *cold_key = std::move(key);
    return false;
  }
  WitnessBatchPath path(*sel.witness, sel.profile, &store_, std::move(view),
                        queries, options);
  auto answered = RunBatch(&path);
  if (!answered.ok()) return answered.status();
  const int upgrade = NoteAnswered(**entry, sel, fp, data.size(),
                                   static_cast<int64_t>(queries.size()),
                                   answered->answer_cost.work);
  if (upgrade >= 0) {
    // The one O(|D|) copy an upgrade costs this face: the queued build
    // outlives the caller's bytes.
    QueueUpgrade({*entry, std::make_shared<const std::string>(data), nullptr,
                  std::move(key), upgrade, fp});
    answered->upgrade_queued = true;
  }
  *result = std::move(answered).value();
  return true;
}

Status QueryEngine::Prepare(std::string_view problem,
                            const std::shared_ptr<const std::string>& data,
                            const PreparedStore::Key& key, CostMeter* meter,
                            bool* ran_pi) {
  if (data == nullptr || key.bytes == nullptr) {
    return Status::InvalidArgument("Prepare needs a data part and its key");
  }
  auto entry = Find(problem);
  if (!entry.ok()) return entry.status();
  if (!(*entry)->has_language) {
    return Status::FailedPrecondition("problem '" + std::string(problem) +
                                      "' has no Σ*-level witness");
  }
  // A parked cold key already embeds the witness the admission-time solver
  // chose; parsing it back out makes the preparer build exactly that Π.
  return PrepareWith(**entry, ResolveWitnessFromKey(**entry, key), data, key,
                     meter, ran_pi);
}

Status QueryEngine::PrepareWith(const ProblemEntry& entry,
                                const SelectedWitness& sel,
                                const std::shared_ptr<const std::string>& data,
                                const PreparedStore::Key& key,
                                CostMeter* meter, bool* ran_pi) {
  bool hit = false;
  int64_t build_ops = -1;
  auto prepared = store_.GetOrComputeView(
      key, MeasuredCompute(*sel.witness, *data, &build_ops), meter, &hit,
      MakeEntryOptions(*sel.witness, sel.size_of, entry.spillable,
                       sel.descriptor, data->size()));
  if (!prepared.ok()) return prepared.status();
  RecordMeasuredBuild(sel.profile, data->size(), *prepared, build_ops);
  if (ran_pi != nullptr) *ran_pi = !hit;
  return Status::OK();
}

Result<bool> QueryEngine::Answer(std::string_view problem,
                                 const std::string& data,
                                 const std::string& query, CostMeter* meter) {
  auto batch = AnswerBatch(problem, data, std::span<const std::string>(&query, 1));
  if (!batch.ok()) return batch.status();
  if (meter != nullptr) {
    meter->AddSequential(batch->prepare_cost);
    meter->AddSequential(batch->answer_cost);
  }
  return static_cast<bool>(batch->answers[0]);
}

Result<bool> QueryEngine::AnswerInstance(std::string_view problem,
                                         const std::string& x,
                                         CostMeter* meter) {
  auto entry = Find(problem);
  if (!entry.ok()) return entry.status();
  if (!(*entry)->has_language) {
    return Status::FailedPrecondition("problem '" + std::string(problem) +
                                      "' has no Σ*-level witness");
  }
  PITRACT_ASSIGN_OR_RETURN(std::string data, (*entry)->factorization.pi1(x));
  PITRACT_ASSIGN_OR_RETURN(std::string query, (*entry)->factorization.pi2(x));
  return Answer(problem, data, query, meter);
}

Result<DeltaOutcome> QueryEngine::ApplyDelta(std::string_view problem,
                                             const std::string& data,
                                             const DeltaBatch& delta,
                                             CostMeter* meter) {
  auto entry = Find(problem);
  if (!entry.ok()) return entry.status();
  if (!(*entry)->has_language) {
    return Status::FailedPrecondition("problem '" + std::string(problem) +
                                      "' has no Σ*-level witness");
  }
  if (!(*entry)->apply_delta_to_data) {
    return Status::FailedPrecondition("problem '" + std::string(problem) +
                                      "' registers no data-delta hook");
  }
  // Coalesce first: a burst of ±ops on the same key nets out before either
  // hook runs, so both the data rewrite and the Π-patch pay for the net
  // delta, not the raw op stream. A burst that nets to nothing reaches the
  // hooks as an empty batch — zero per-op work, an in-place republish.
  const DeltaBatch coalesced = Coalesce(delta);
  DeltaOutcome outcome;
  PITRACT_ASSIGN_OR_RETURN(outcome.new_data,
                           (*entry)->apply_delta_to_data(data, coalesced));
  // Patch the witness this part is actually resident under: under an
  // adaptive/forced policy the sticky per-part choice (falling back to a
  // residency probe) says which candidate's payload is in the store, and
  // its popularity carries over to the post-delta fingerprint so one delta
  // never resets a hot part to cold.
  SelectedWitness sel = CandidateAt(**entry, 0);
  if (!(*entry)->alternatives.empty() &&
      cost_model_.policy() != CostModel::Policy::kPrimaryOnly) {
    const uint64_t old_fp = PartFingerprint(data);
    const uint64_t new_fp = PartFingerprint(outcome.new_data);
    if (cost_model_.policy() == CostModel::Policy::kForced) {
      sel = CandidateAt(**entry, cost_model_.forced_index());
    } else {
      const int cached = cost_model_.ChoiceFor(old_fp);
      if (cached >= 0) {
        sel = CandidateAt(**entry, cached);
      } else {
        for (int i = 0;
             i <= static_cast<int>((*entry)->alternatives.size()); ++i) {
          const SelectedWitness probe = CandidateAt(**entry, i);
          if (store_.Contains((*entry)->name, probe.witness->name, data)) {
            sel = probe;
            break;
          }
        }
      }
    }
    cost_model_.CarryTraffic(old_fp, new_fp);
  }
  if (sel.patch == nullptr || !*sel.patch) {
    outcome.fallback_reason = Status::FailedPrecondition(
        "problem '" + std::string(problem) + "' registers no Π-patch hook" +
        (sel.index > 0 ? " for witness '" + sel.witness->name + "'" : ""));
    return outcome;
  }
  // The entry options include the selected witness's view builder, so a
  // successful patch re-keys the entry with a freshly decoded post-delta
  // view — a patched entry never serves its pre-patch view.
  PreparedStore::EntryOptions entry_options =
      MakeEntryOptions(*sel.witness, sel.size_of, (*entry)->spillable,
                       sel.descriptor, outcome.new_data.size());
  const PreparedPatchFn& patch = *sel.patch;
  CostProfile* profile = sel.profile;
  Status patched = store_.UpdateData(
      (*entry)->name, sel.witness->name, data, outcome.new_data,
      [&patch, &coalesced, profile](std::string* prepared, CostMeter* m) {
        CostMeter local;
        Status s = patch(prepared, coalesced, &local);
        if (m != nullptr) m->MergeFrom(local);
        if (s.ok() && profile != nullptr) profile->RecordPatch(local.work());
        return s;
      },
      meter, entry_options);
  if (patched.ok()) {
    outcome.patched = true;
  } else {
    // Patch-side failures are soft: the post-delta data part recomputes
    // on its first miss, which is always correct (just not amortized).
    outcome.fallback_reason = patched;
  }
  return outcome;
}

Result<BatchResult> QueryEngine::AnswerTypedBatch(std::string_view problem,
                                                  int64_t n, uint64_t seed) {
  auto entry = Find(problem);
  if (!entry.ok()) return entry.status();
  if (!(*entry)->make_case) {
    return Status::FailedPrecondition("problem '" + std::string(problem) +
                                      "' has no typed case");
  }
  std::shared_ptr<core::QueryClassCase> cached;
  uint64_t generation_at_miss = 0;
  {
    std::lock_guard<std::mutex> lock(typed_mutex_);
    auto slot = std::find_if(typed_cache_.begin(), typed_cache_.end(),
                             [&](const TypedSlot& s) {
                               return s.Matches(problem, n, seed);
                             });
    if (slot != typed_cache_.end()) {
      // Cached slots are always prepared: insertion happens below only
      // after a fully successful batch. The shared_ptr keeps the instance
      // alive even if another thread trims it out of the cache mid-batch.
      typed_cache_.splice(typed_cache_.begin(), typed_cache_, slot);
      cached = slot->instance;
    } else {
      generation_at_miss = typed_generation_;
    }
  }
  if (cached != nullptr) {
    TypedCaseBatchPath path(cached.get(), /*already_prepared=*/true);
    return RunBatch(&path);
  }
  // Cold key: generate and prepare outside the lock (two racing threads may
  // each do this once; only the first inserts, the other's work is dropped).
  std::shared_ptr<core::QueryClassCase> fresh = (*entry)->make_case();
  if (fresh == nullptr) {
    return Status::Internal("typed case factory for '" + std::string(problem) +
                            "' returned null");
  }
  PITRACT_RETURN_IF_ERROR(fresh->Generate(n, seed));
  TypedCaseBatchPath path(fresh.get(), /*already_prepared=*/false);
  auto result = RunBatch(&path);
  if (!result.ok()) return result.status();  // never cache a failed prepare
  {
    std::lock_guard<std::mutex> lock(typed_mutex_);
    // Re-scan for a racing duplicate only when an insert actually landed
    // since the miss — the uncontended cold path skips the second scan.
    bool duplicate = false;
    if (typed_generation_ != generation_at_miss) {
      duplicate = std::any_of(typed_cache_.begin(), typed_cache_.end(),
                              [&](const TypedSlot& s) {
                                return s.Matches(problem, n, seed);
                              });
    }
    if (!duplicate) {
      typed_cache_.push_front(
          TypedSlot{std::string(problem), n, seed, std::move(fresh)});
      ++typed_generation_;
      if (typed_capacity_ > 0) {  // 0 = unbounded, like the PreparedStore
        while (typed_cache_.size() > typed_capacity_) typed_cache_.pop_back();
      }
    }
  }
  return result;
}

Result<std::unique_ptr<core::QueryClassCase>> QueryEngine::MakeCase(
    std::string_view problem) const {
  auto entry = Find(problem);
  if (!entry.ok()) return entry.status();
  if (!(*entry)->make_case) {
    return Status::FailedPrecondition("problem '" + std::string(problem) +
                                      "' has no typed case");
  }
  auto instance = (*entry)->make_case();
  if (instance == nullptr) {
    return Status::Internal("typed case factory for '" + std::string(problem) +
                            "' returned null");
  }
  return instance;
}

}  // namespace engine
}  // namespace pitract
