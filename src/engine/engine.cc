#include "engine/engine.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"

namespace pitract {
namespace engine {

namespace {

/// The store-entry knobs one witness candidate supplies for its Π(D)
/// payloads: its size estimate, spillability, and the decoded-view builder
/// when the witness carries one.
PreparedStore::EntryOptions MakeEntryOptions(
    const core::PiWitness& witness, const PreparedStore::SizeFn* size_of,
    bool spillable) {
  PreparedStore::EntryOptions options;
  if (size_of != nullptr && *size_of) options.size_of = *size_of;
  options.spillable = spillable;
  if (witness.has_view()) options.make_view = witness.deserialize;
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

/// The answer half of a batch, from one served Π(D) under `w`: every query
/// is decoded once up front (one reusable int64 scratch buffer), then the
/// whole span is answered by the witness's batch kernel when it has one,
/// else by the decoded loop. A witness without a decoded view answers
/// query by query through `answer_view` or the string `answer` hook. The
/// first error fails the whole batch on every path.
Status AnswerPrepared(const core::PiWitness& w,
                      const PreparedStore::PreparedView& prepared,
                      std::span<const std::string> queries,
                      BatchResult* result) {
  CostMeter meter;
  const void* view = prepared.view.get();
  const size_t n = queries.size();
  std::vector<bool>& answers = result->answers;
  answers.reserve(n);
  if (view != nullptr && (w.has_batch_kernel() || w.has_decoded_answer())) {
    std::vector<core::DecodedQuery> decoded(n);
    std::vector<int64_t> scratch;
    for (size_t i = 0; i < n; ++i) {
      PITRACT_RETURN_IF_ERROR(
          w.decode_query(queries[i], &decoded[i], &scratch));
    }
    if (w.has_batch_kernel()) {
      std::vector<uint8_t> raw(n);
      PITRACT_RETURN_IF_ERROR(w.answer_view_batch(
          view, decoded, std::span<uint8_t>(raw), &meter));
      answers.assign(raw.begin(), raw.end());
      result->mode = BatchAnswerMode::kKernel;
    } else {
      for (const core::DecodedQuery& query : decoded) {
        auto answer = w.answer_view_decoded(view, query, &meter);
        if (!answer.ok()) return answer.status();
        answers.push_back(*answer);
      }
      result->mode = BatchAnswerMode::kPreDecoded;
    }
  } else {
    for (const std::string& query : queries) {
      auto answer = view != nullptr && w.answer_view
                        ? w.answer_view(view, query, &meter)
                        : w.answer(*prepared.prepared, query, &meter);
      if (!answer.ok()) return answer.status();
      answers.push_back(*answer);
    }
    result->mode = BatchAnswerMode::kScalar;
  }
  result->answer_cost = meter.cost();
  result->answer_bytes_read = meter.bytes_read();
  return Status::OK();
}

}  // namespace

QueryEngine::QueryEngine(const PreparedStore::Options& store_options)
    : store_(store_options) {}

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
  const ProblemEntry& entry = *job.entry;
  const SelectedWitness to = CandidateAt(entry, job.to);
  // A batch answered from the old witness can cross a doubling just after
  // an upgrade of its part completed: through its own route, or through
  // another handle of the part (a string-keyed caller interns a private
  // one per batch or item). Its job finds the part moved on and is
  // dropped; a route the other handle's upgrade left behind is pointed at
  // the upgraded entry, which the sticky choice says is published.
  const bool route_moved =
      job.route != nullptr && job.route->key().bytes != job.from_key.bytes;
  if (route_moved || cost_model_.ChoiceFor(job.part_fingerprint) == job.to) {
    if (!route_moved && job.route != nullptr) {
      job.route->Switch(
          store_.BuildKeyCounted(entry.name, to.witness->name, *job.data));
    }
    std::lock_guard<std::mutex> lock(upgrade_mutex_);
    upgrading_.erase(job.part_fingerprint);
    return outcome;
  }
  outcome.ran = true;
  Status& status = outcome.status;
  if (PITRACT_FAILPOINT("engine.witness_upgrade")) {
    status = Status::Internal("failpoint engine.witness_upgrade fired");
  } else {
    PreparedStore::Key key =
        store_.BuildKeyCounted(entry.name, to.witness->name, *job.data);
    status = PrepareWith(entry, to, *job.data, key, meter, &outcome.ran_pi);
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

Result<const ProblemEntry*> QueryEngine::FindLanguage(
    std::string_view problem) const {
  auto entry = Find(problem);
  if (entry.ok() && !(*entry)->has_language) {
    return Status::FailedPrecondition("problem '" + std::string(problem) +
                                      "' has no Σ*-level witness");
  }
  return entry;
}

Result<DataHandle> QueryEngine::Intern(std::string_view problem,
                                       std::string data) const {
  PITRACT_ASSIGN_OR_RETURN(const ProblemEntry* entry, FindLanguage(problem));
  DataHandle handle;
  handle.problem = std::string(problem);
  handle.data = std::make_shared<const std::string>(std::move(data));
  // Only a live model over several witnesses tracks parts by fingerprint;
  // every other part skips the O(|D|) hash.
  if (!entry->alternatives.empty() &&
      cost_model_.policy() != CostModel::Policy::kPrimaryOnly) {
    handle.part_fingerprint = PartFingerprint(*handle.data);
  }
  // Admission is where the solver earns its keep: the handle's key embeds
  // the witness the cost model picked for this part, and every later batch
  // over the handle flows through that choice with zero re-selection work.
  const SelectedWitness sel =
      SelectWitness(*entry, handle.data.get(), handle.part_fingerprint);
  handle.key =
      store_.BuildKeyCounted(entry->name, sel.witness->name, *handle.data);
  handle.route = std::make_shared<WitnessRoute>(handle.key);
  return handle;
}

Result<BatchResult> QueryEngine::AnswerBatch(
    std::string_view problem, const std::string& data,
    std::span<const std::string> queries) {
  PITRACT_ASSIGN_OR_RETURN(DataHandle handle, Intern(problem, data));
  return AnswerBatch(handle, queries);
}

Result<BatchResult> QueryEngine::AnswerBatch(
    const DataHandle& handle, std::span<const std::string> queries) {
  if (handle.data == nullptr || handle.key.bytes == nullptr) {
    return Status::InvalidArgument("empty DataHandle (use Intern)");
  }
  PITRACT_ASSIGN_OR_RETURN(const ProblemEntry* entry,
                           FindLanguage(handle.problem));
  // Answer hooks come from the witness the route's current key names,
  // never from the current selection: the key says what the payload is.
  const PreparedStore::Key& key = handle.current_key();
  const SelectedWitness sel = ResolveWitnessFromKey(*entry, key);
  BatchResult result;
  CostMeter prepare_meter;
  bool ran_pi = false;
  PreparedStore::PreparedView view;
  PITRACT_RETURN_IF_ERROR(PrepareWith(*entry, sel, *handle.data, key,
                                      &prepare_meter, &ran_pi, &view));
  result.prepare_runs = ran_pi ? 1 : 0;
  result.cache_hit = !ran_pi;
  result.prepare_cost = prepare_meter.cost();
  PITRACT_RETURN_IF_ERROR(AnswerPrepared(*sel.witness, view, queries, &result));
  const int upgrade =
      NoteAnswered(*entry, sel, handle.part_fingerprint, handle.data->size(),
                   static_cast<int64_t>(queries.size()),
                   result.answer_cost.work);
  if (upgrade >= 0) {
    // A blocking caller pays Π inline on its own miss; it pays an upgrade
    // it triggers the same way, after its batch is answered. The outcome
    // is the upgrade's, not the batch's: a failed one leaves the old
    // witness serving.
    (void)RunUpgrade({entry, handle.data, handle.route, key, upgrade,
                      handle.part_fingerprint},
                     nullptr);
  }
  return result;
}

Result<bool> QueryEngine::TryAnswerWarm(const DataHandle& handle,
                                        std::span<const std::string> queries,
                                        BatchResult* result) {
  if (handle.data == nullptr || handle.key.bytes == nullptr) {
    return Status::InvalidArgument("empty DataHandle (use Intern)");
  }
  PITRACT_ASSIGN_OR_RETURN(const ProblemEntry* entry,
                           FindLanguage(handle.problem));
  // One acquire load: the key the part answers from now.
  const PreparedStore::Key& key = handle.current_key();
  const SelectedWitness sel = ResolveWitnessFromKey(*entry, key);
  PreparedStore::PreparedView view;
  if (!store_.TryGetView(
          key, MakeEntryOptions(*sel.witness, sel.size_of, entry->spillable),
          nullptr, &view)) {
    return false;  // cold: the caller parks the batch and prepares off-path
  }
  BatchResult answered;
  answered.cache_hit = true;
  // Parity with the blocking face's hit: the probe already counted the
  // store-side hit; the batch charges the one probe op.
  CostMeter prepare_meter;
  prepare_meter.AddSerial(1);
  answered.prepare_cost = prepare_meter.cost();
  PITRACT_RETURN_IF_ERROR(
      AnswerPrepared(*sel.witness, view, queries, &answered));
  const int upgrade =
      NoteAnswered(*entry, sel, handle.part_fingerprint, handle.data->size(),
                   static_cast<int64_t>(queries.size()),
                   answered.answer_cost.work);
  if (upgrade >= 0) {
    QueueUpgrade({entry, handle.data, handle.route, key, upgrade,
                  handle.part_fingerprint});
    answered.upgrade_queued = true;
  }
  *result = std::move(answered);
  return true;
}

Status QueryEngine::Prepare(std::string_view problem,
                            const std::shared_ptr<const std::string>& data,
                            const PreparedStore::Key& key, CostMeter* meter,
                            bool* ran_pi) {
  if (data == nullptr || key.bytes == nullptr) {
    return Status::InvalidArgument("Prepare needs a data part and its key");
  }
  PITRACT_ASSIGN_OR_RETURN(const ProblemEntry* entry, FindLanguage(problem));
  // A parked cold key already embeds the witness the admission-time solver
  // chose; parsing it back out makes the preparer build exactly that Π.
  return PrepareWith(*entry, ResolveWitnessFromKey(*entry, key), *data, key,
                     meter, ran_pi);
}

Status QueryEngine::PrepareWith(const ProblemEntry& entry,
                                const SelectedWitness& sel,
                                const std::string& data,
                                const PreparedStore::Key& key,
                                CostMeter* meter, bool* ran_pi,
                                PreparedStore::PreparedView* view) {
  bool hit = false;
  int64_t build_ops = -1;
  auto prepared = store_.GetOrComputeView(
      key, MeasuredCompute(*sel.witness, data, &build_ops), meter, &hit,
      MakeEntryOptions(*sel.witness, sel.size_of, entry.spillable));
  if (!prepared.ok()) return prepared.status();
  RecordMeasuredBuild(sel.profile, data.size(), *prepared, build_ops);
  if (ran_pi != nullptr) *ran_pi = !hit;
  if (view != nullptr) *view = std::move(prepared).value();
  return Status::OK();
}

Result<bool> QueryEngine::Answer(std::string_view problem,
                                 const std::string& data,
                                 const std::string& query, CostMeter* meter) {
  PITRACT_ASSIGN_OR_RETURN(DataHandle handle, Intern(problem, data));
  return AnswerOne(handle, query, meter);
}

Result<bool> QueryEngine::AnswerOne(const DataHandle& handle,
                                    const std::string& query,
                                    CostMeter* meter) {
  auto batch = AnswerBatch(handle, std::span<const std::string>(&query, 1));
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
  PITRACT_ASSIGN_OR_RETURN(const ProblemEntry* entry, FindLanguage(problem));
  PITRACT_ASSIGN_OR_RETURN(std::string data, entry->factorization.pi1(x));
  PITRACT_ASSIGN_OR_RETURN(std::string query, entry->factorization.pi2(x));
  // π₁'s result is this call's own: the handle takes it without a copy.
  PITRACT_ASSIGN_OR_RETURN(DataHandle handle,
                           Intern(problem, std::move(data)));
  return AnswerOne(handle, query, meter);
}

Result<DeltaOutcome> QueryEngine::ApplyDelta(std::string_view problem,
                                             const std::string& data,
                                             const DeltaBatch& delta,
                                             CostMeter* meter) {
  auto entry = FindLanguage(problem);
  if (!entry.ok()) return entry.status();
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
      MakeEntryOptions(*sel.witness, sel.size_of, (*entry)->spillable);
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
