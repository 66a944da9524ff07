#include "core/schedule_delta.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string_view>

#include "obs/recorder.h"

namespace lachesis::core {

namespace {
// Detail of the ops whose events carry none.
constexpr auto kNoDetail = [] { return std::string_view(); };
}  // namespace

void ScheduleDeltaAdapter::SetRecorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  health_.SetRecorder(recorder);
  const auto forget = [](const ThreadKey&, auto& cached) {
    cached.rec = obs::kNoStr;
  };
  nice_.ForEach(forget);
  rt_.ForEach(forget);
  deadline_.ForEach(forget);
  affinity_.ForEach(forget);
  group_of_.ForEach(forget);
  std::fill(group_rec_.begin(), group_rec_.end(), obs::kNoStr);
}

void ScheduleDeltaAdapter::Reset() {
  nice_.Clear();
  rt_.Clear();
  deadline_.Clear();
  affinity_.Clear();
  group_of_.Clear();
  shares_.Clear();
  quota_.Clear();
}

void ScheduleDeltaAdapter::ForgetThread(const ThreadHandle& thread) {
  const ThreadKey key = KeyOf(thread);
  nice_.Erase(key);
  rt_.Erase(key);
  deadline_.Erase(key);
  affinity_.Erase(key);
  group_of_.Erase(key);
  health_.ForgetTarget(HealthKeyOf(thread));
}

void ScheduleDeltaAdapter::ForgetGroup(const std::string& group) {
  const std::uint32_t gid = GroupIdOf(group);
  if (gid != kUnknownGroup) {
    shares_.Erase(gid);
    quota_.Erase(gid);
  }
  health_.ForgetTarget(HealthKeyOf(group));
}

std::size_t ScheduleDeltaAdapter::SeedFromSnapshot(
    const OsStateSnapshot& snapshot) {
  std::size_t seeded = 0;
  for (const OsStateSnapshot::ThreadState& ts : snapshot.threads) {
    const ThreadKey key = KeyOf(ts.thread);
    if (ts.nice) {
      nice_.Insert(key, {*ts.nice});
      ++seeded;
    }
    if (ts.rt_priority && *ts.rt_priority > 0) {
      rt_.Insert(key, {*ts.rt_priority});
      ++seeded;
    }
    if (ts.group) {
      group_of_.Insert(key, {group_ids_.Intern(*ts.group)});
      ++seeded;
    }
    if (ts.deadline && !ts.deadline->is_zero()) {
      deadline_.Insert(key, {{ts.deadline->runtime, ts.deadline->deadline,
                              ts.deadline->period}});
      ++seeded;
    }
  }
  for (const auto& [group, shares] : snapshot.group_shares) {
    shares_.Insert(group_ids_.Intern(group), shares);
    ++seeded;
  }
  for (const auto& [group, quota] : snapshot.group_quota) {
    quota_.Insert(group_ids_.Intern(group), quota);
    ++seeded;
  }
  // Groups the backend still holds from a previous incarnation count as
  // adopted whether or not the next schedule references them: their cached
  // state prevents both a redundant re-create and a fight over values.
  adopted_groups_ = snapshot.groups.size();
  return seeded;
}

std::size_t ScheduleDeltaAdapter::ReconcileFromBackend(
    const std::vector<ThreadHandle>& threads) {
  OsStateSnapshot snapshot;
  if (!next_->SnapshotState(threads, snapshot)) return 0;
  return SeedFromSnapshot(snapshot);
}

std::size_t ScheduleDeltaAdapter::rt_boosted_count() const {
  std::size_t count = 0;
  rt_.ForEach([&](const ThreadKey&, const Cached<int>& priority) {
    if (priority.value > 0) ++count;
  });
  return count;
}

std::size_t ScheduleDeltaAdapter::dl_reserved_count() const {
  std::size_t count = 0;
  deadline_.ForEach(
      [&](const ThreadKey&, const Cached<std::array<SimDuration, 3>>& d) {
        if (d.value[0] != 0 || d.value[1] != 0 || d.value[2] != 0) ++count;
      });
  return count;
}

void ScheduleDeltaAdapter::LogFailureOnce(OpClass cls, OpTarget target,
                                          const char* what) {
  // One line per (operation, target): a permanently broken target (e.g. an
  // unwritable cgroup root) must not flood the log every period.
  const std::string name = target.log_name();
  const std::uint32_t id = log_names_.Intern(name);
  if (logged_failures_[static_cast<int>(cls)].Insert(id)) {
    std::fprintf(stderr, "lachesis: %s(%s) failed: %s\n", OpClassName(cls),
                 name.c_str(), what);
  }
}

template <typename DetailFn>
void ScheduleDeltaAdapter::RecordOp(obs::EventKind kind, OpClass cls,
                                    obs::StrId& rec_id, OpTarget target,
                                    std::int64_t value, DetailFn&& detail) {
  if (recorder_ == nullptr || !recorder_->enabled()) return;
  if (kind == obs::EventKind::kOpElided && !recorder_->verbose()) return;
  // Target before detail: the intern order (and so every StrId) is the one
  // the string-taking Recorder::Op produces.
  if (rec_id == obs::kNoStr) rec_id = recorder_->Intern(target.health_key());
  recorder_->Op(now_, kind, static_cast<int>(cls), rec_id, value,
                recorder_->Intern(detail()));
}

void ScheduleDeltaAdapter::Elide(OpClass cls, obs::StrId& rec_id,
                                 OpTarget target, std::int64_t value) {
  ++tick_.skipped;
  ++totals_.skipped;
  RecordOp(obs::EventKind::kOpElided, cls, rec_id, target, value, kNoDetail);
}

void ScheduleDeltaAdapter::Failed(OpClass cls, obs::StrId& rec_id,
                                  OpTarget target, std::string& health_key,
                                  std::int64_t value, ErrorSeverity severity,
                                  const char* what) {
  if (health_key.empty()) health_key = target.health_key();
  health_.RecordFailure(cls, health_key, now_, severity);
  ++tick_.errors;
  ++totals_.errors;
  RecordOp(obs::EventKind::kOpError, cls, rec_id, target, value,
           [what] { return std::string_view(what); });
  LogFailureOnce(cls, target, what);
}

template <typename DetailFn, typename Fn>
bool ScheduleDeltaAdapter::Forward(OpClass cls, obs::StrId& rec_id,
                                   OpTarget target, std::int64_t value,
                                   DetailFn&& detail, Fn&& fn) {
  // A quiet class allows every attempt and reads no key on success, so the
  // health key is built only when the class is not quiet (or on failure).
  std::string health_key;
  if (!health_.Quiet(cls)) {
    health_key = target.health_key();
    if (!health_.AllowAttempt(cls, health_key, now_)) {
      ++tick_.suppressed;
      ++totals_.suppressed;
      RecordOp(obs::EventKind::kOpSuppressed, cls, rec_id, target, value,
               detail);
      return false;
    }
  }
  try {
    fn();
  } catch (const OsOperationError& e) {
    Failed(cls, rec_id, target, health_key, value, e.severity(), e.what());
    return false;
  } catch (const std::exception& e) {
    Failed(cls, rec_id, target, health_key, value, ErrorSeverity::kTransient,
           e.what());
    return false;
  }
  health_.RecordSuccess(cls, health_key, now_);
  ++tick_.applied;
  ++totals_.applied;
  RecordOp(obs::EventKind::kOpApplied, cls, rec_id, target, value, detail);
  return true;
}

template <typename V, typename DetailFn, typename Fn>
void ScheduleDeltaAdapter::ApplyThreadOp(FlatMap<ThreadKey, Cached<V>>& cache,
                                         OpClass cls,
                                         const ThreadHandle& thread,
                                         const V& value, bool is_default,
                                         std::int64_t event_value,
                                         DetailFn&& detail, Fn&& fn) {
  const ThreadKey key = KeyOf(thread);
  Cached<V>* slot = cache.Find(key);
  obs::StrId unseen = obs::kNoStr;
  obs::StrId& rec_id = slot != nullptr ? slot->rec : unseen;
  if (enabled_ && (slot != nullptr ? slot->value == value : is_default)) {
    Elide(cls, rec_id, {&thread}, event_value);
    return;
  }
  if (!Forward(cls, rec_id, {&thread}, event_value, detail, fn)) return;
  // Nothing inserts into `cache` while forwarding, so `slot` is still live.
  if (slot != nullptr) {
    slot->value = value;
  } else {
    cache.Insert(key, {value, rec_id});
  }
}

template <typename V, typename DetailFn, typename Fn>
void ScheduleDeltaAdapter::ApplyGroupOp(FlatMap<std::uint32_t, V>& cache,
                                        OpClass cls, const std::string& group,
                                        const V& value,
                                        std::int64_t event_value,
                                        DetailFn&& detail, Fn&& fn) {
  const std::uint32_t gid = GroupIdOf(group);
  V* cached = gid != kUnknownGroup ? cache.Find(gid) : nullptr;
  obs::StrId unseen = obs::kNoStr;
  obs::StrId& rec_id = gid != kUnknownGroup ? GroupRecId(gid) : unseen;
  if (enabled_ && cached != nullptr && *cached == value) {
    Elide(cls, rec_id, {nullptr, &group}, event_value);
    return;
  }
  if (!Forward(cls, rec_id, {nullptr, &group}, event_value, detail, fn)) {
    return;
  }
  if (cached != nullptr) {
    *cached = value;
    return;
  }
  const std::uint32_t id = group_ids_.Intern(group);
  cache.Insert(id, value);
  if (gid == kUnknownGroup) GroupRecId(id) = unseen;
}

void ScheduleDeltaAdapter::SetNice(const ThreadHandle& thread, int nice) {
  ApplyThreadOp(nice_, OpClass::kSetNice, thread, nice, false, nice,
                kNoDetail, [&] { next_->SetNice(thread, nice); });
}

void ScheduleDeltaAdapter::SetGroupShares(const std::string& group,
                                          std::uint64_t shares) {
  ApplyGroupOp(shares_, OpClass::kSetGroupShares, group, shares,
               static_cast<std::int64_t>(shares), kNoDetail,
               [&] { next_->SetGroupShares(group, shares); });
}

void ScheduleDeltaAdapter::MoveToGroup(const ThreadHandle& thread,
                                       const std::string& group) {
  const ThreadKey key = KeyOf(thread);
  Cached<std::uint32_t>* slot = group_of_.Find(key);
  obs::StrId unseen = obs::kNoStr;
  obs::StrId& rec_id = slot != nullptr ? slot->rec : unseen;
  if (enabled_ && slot != nullptr) {
    const std::uint32_t gid = GroupIdOf(group);
    if (gid != kUnknownGroup && slot->value == gid) {
      Elide(OpClass::kMoveToGroup, rec_id, {&thread}, 0);
      return;
    }
  }
  if (!Forward(OpClass::kMoveToGroup, rec_id, {&thread, &group}, 0,
               [&] { return std::string_view(group); },
               [&] { next_->MoveToGroup(thread, group); })) {
    return;
  }
  const std::uint32_t gid = group_ids_.Intern(group);
  if (slot != nullptr) {
    slot->value = gid;
  } else {
    group_of_.Insert(key, {gid, rec_id});
  }
}

// A demotion for a thread the delta layer never boosted is a no-op by
// construction (fair class is the default state).
void ScheduleDeltaAdapter::SetRtPriority(const ThreadHandle& thread,
                                         int rt_priority) {
  ApplyThreadOp(rt_, OpClass::kSetRtPriority, thread, rt_priority,
                rt_priority == 0, rt_priority, kNoDetail,
                [&] { next_->SetRtPriority(thread, rt_priority); });
}

void ScheduleDeltaAdapter::SetGroupQuota(const std::string& group,
                                         SimDuration quota, SimDuration period) {
  ApplyGroupOp(quota_, OpClass::kSetGroupQuota, group,
               std::make_pair(quota, period), quota,
               [&] { return "period_ns=" + std::to_string(period); },
               [&] { next_->SetGroupQuota(group, quota, period); });
}

// Clearing a reservation the delta layer never applied is a no-op by
// construction (no reservation is the default state).
void ScheduleDeltaAdapter::SetDeadline(const ThreadHandle& thread,
                                       SimDuration runtime,
                                       SimDuration deadline,
                                       SimDuration period) {
  const std::array<SimDuration, 3> triple{runtime, deadline, period};
  ApplyThreadOp(deadline_, OpClass::kSetDeadline, thread, triple,
                runtime == 0 && deadline == 0 && period == 0, runtime,
                [&] {
                  return "deadline_ns=" + std::to_string(deadline) +
                         " period_ns=" + std::to_string(period);
                },
                [&] { next_->SetDeadline(thread, runtime, deadline, period); });
}

// Clearing a hint that was never set is a no-op by construction.
void ScheduleDeltaAdapter::SetCpuAffinity(const ThreadHandle& thread,
                                          CpuPreference pref) {
  const auto value = static_cast<std::uint8_t>(pref);
  ApplyThreadOp(affinity_, OpClass::kSetAffinity, thread, value,
                pref == CpuPreference::kNone, value, kNoDetail,
                [&] { next_->SetCpuAffinity(thread, pref); });
}

}  // namespace lachesis::core
