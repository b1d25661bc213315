#include "maint/maintenance.hpp"

#include <algorithm>

namespace oak::maint {

namespace {
using Clock = std::chrono::steady_clock;
/// Rate-limit sleeps are sliced so stop/drain/detach never wait long for a
/// throttled worker.
constexpr auto kThrottleSlice = std::chrono::milliseconds(20);
}  // namespace

MaintenanceService::MaintenanceService(unsigned threads,
                                       std::size_t rateLimitBytesPerSec,
                                       std::size_t queueDepth)
    : rate_(rateLimitBytesPerSec),
      queueDepth_(queueDepth == 0 ? 1 : queueDepth),
      // A full second of burst: short spikes ride the bucket, sustained load
      // converges to the configured rate.
      tokens_(static_cast<double>(rateLimitBytesPerSec)),
      lastRefill_(Clock::now()) {
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

MaintenanceService::~MaintenanceService() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  workCv_.notify_all();
  rateCv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Queued jobs die with the service; owners detach() before destruction,
  // so anything left here has no owner waiting on it.
}

bool MaintenanceService::submit(void* owner, ByteVec key, std::size_t costBytes,
                                JobFn fn) {
  {
    MutexLock lk(mu_);
    if (stop_ || detaching_.count(owner) != 0) return false;
    if (!queuedKeys_.insert(idOf(owner, fn, key)).second) {
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      submitted_.fetch_add(1, std::memory_order_relaxed);
      return true;  // already queued: coalesce
    }
    if (queue_.size() >= queueDepth_) {
      queuedKeys_.erase(idOf(owner, fn, key));
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    queue_.push_back(Job{owner, std::move(key), costBytes, fn});
    submitted_.fetch_add(1, std::memory_order_relaxed);
  }
  workCv_.notify_one();
  return true;
}

void MaintenanceService::detach(void* owner) {
  MutexLock lk(mu_);
  // Block resubmission first: an in-flight job may re-enqueue itself (the
  // worker OOM-retry path) between our queue sweep and the running_ wait,
  // and a job left queued past detach is a use-after-free when it runs.
  detaching_.insert(owner);
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->owner == owner) {
      queuedKeys_.erase(idOf(it->owner, it->fn, it->key));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  // Open-coded wait (not a predicate lambda) so the analysis sees the
  // guarded running_ reads happen with mu_ held; the cv reacquires before
  // each predicate evaluation.
  while (std::find(running_.begin(), running_.end(), owner) != running_.end()) {
    idleCv_.wait(lk.native());
  }
  // Lift the gate so a future object reusing this address can submit again.
  detaching_.erase(owner);
}

void MaintenanceService::pause() {
  MutexLock lk(mu_);
  paused_ = true;
}

void MaintenanceService::resume() {
  {
    MutexLock lk(mu_);
    paused_ = false;
  }
  workCv_.notify_all();
}

void MaintenanceService::drain() {
  drainers_.fetch_add(1, std::memory_order_relaxed);
  rateCv_.notify_all();
  MutexLock lk(mu_);
  for (;;) {
    if (!queue_.empty()) {
      Job j = takeFrontLocked();
      lk.unlock();
      runJobNoexcept(j);
      lk.lock();
      finishJobLocked(j);
      continue;
    }
    if (running_.empty()) break;
    idleCv_.wait(lk.native());
  }
  drainers_.fetch_sub(1, std::memory_order_relaxed);
}

MaintenanceStats MaintenanceService::stats() const {
  MaintenanceStats s;
  {
    MutexLock lk(mu_);
    s.pending = queue_.size();
    s.inFlight = running_.size();
    s.paused = paused_;
  }
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.throttledMs = throttledMs_.load(std::memory_order_relaxed);
  s.threads = workers_.size();
  return s;
}

MaintenanceService::Job MaintenanceService::takeFrontLocked() {
  Job j = std::move(queue_.front());
  queue_.pop_front();
  // The dedupe entry clears at *pop*, not completion: a chunk re-tripping
  // the policy while its job runs must be able to queue a fresh pass.
  queuedKeys_.erase(idOf(j.owner, j.fn, j.key));
  running_.push_back(j.owner);
  return j;
}

void MaintenanceService::finishJobLocked(const Job& j) {
  running_.erase(std::find(running_.begin(), running_.end(), j.owner));
  executed_.fetch_add(1, std::memory_order_relaxed);
  idleCv_.notify_all();
}

void MaintenanceService::runJobNoexcept(const Job& j) noexcept {
  // Job bodies handle their own failures (a rebalance OOM rolls itself
  // back and may resubmit); anything escaping here must not kill a worker.
  try {
    j.fn(j.owner, j.key);
  } catch (...) {
  }
}

void MaintenanceService::throttle(std::size_t costBytes) {
  if (rate_ == 0) return;
  // Jobs bigger than the bucket would starve forever; cap the charge at one
  // second's worth.
  const double cost = std::min<double>(static_cast<double>(costBytes),
                                       static_cast<double>(rate_));
  MutexLock lk(rateMu_);
  for (;;) {
    const auto now = Clock::now();
    const std::chrono::duration<double> dt = now - lastRefill_;
    lastRefill_ = now;
    tokens_ = std::min(static_cast<double>(rate_),
                       tokens_ + dt.count() * static_cast<double>(rate_));
    if (tokens_ >= cost) {
      tokens_ -= cost;
      return;
    }
    if (drainers_.load(std::memory_order_relaxed) > 0) return;
    {
      MutexLock g(mu_);
      if (stop_) return;
    }
    const auto t0 = Clock::now();
    rateCv_.wait_for(lk.native(), kThrottleSlice);
    const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - t0);
    throttledMs_.fetch_add(static_cast<std::uint64_t>(waited.count()),
                           std::memory_order_relaxed);
  }
}

void MaintenanceService::workerLoop() {
  MutexLock lk(mu_);
  for (;;) {
    // Open-coded predicate: the guarded reads stay in this function's body,
    // where the analysis knows mu_ is held across each evaluation.
    while (!stop_ && (queue_.empty() || paused_)) workCv_.wait(lk.native());
    if (stop_) return;
    Job j = takeFrontLocked();
    lk.unlock();
    throttle(j.cost);
    runJobNoexcept(j);
    lk.lock();
    finishJobLocked(j);
  }
}

}  // namespace oak::maint
