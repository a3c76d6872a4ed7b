// JobService tests: admission control (bounded queue, explicit shedding),
// per-tenant priority + weighted fair share, concurrent execution on
// executor lanes, cancel / deadline lifecycle, the RPC front-end over both
// transports, and two concurrent word counts staying byte-identical under
// message chaos.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "fault/fault.h"
#include "net/router.h"
#include "net/rpc.h"
#include "net/tcp_transport.h"
#include "obs/event_log.h"
#include "service/job_rpc.h"
#include "service/job_service.h"

using namespace hamr;
using namespace hamr::engine;
using namespace hamr::service;

namespace {

// Rendezvous/latch shared by every instance of a job's loader: opens once
// `arrived >= release_at` (or when open() drops the bar). Loaders also bail
// on stream_stopping(), which Engine::request_cancel flips, so gated jobs
// stay cancellable.
struct Gate {
  std::atomic<int> arrived{0};
  std::atomic<int> release_at{std::numeric_limits<int>::max()};

  void open() { release_at.store(0); }
  bool is_open() const { return arrived.load() >= release_at.load(); }
};

class GateLoader : public LoaderFlowlet {
 public:
  explicit GateLoader(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}

  bool load_chunk(const InputSplit& split, uint64_t* cursor,
                  Context& ctx) override {
    if (*cursor == 0) {
      *cursor = 1;
      gate_->arrived.fetch_add(1);
    }
    while (!gate_->is_open() && !ctx.stream_stopping()) {
      std::this_thread::sleep_for(millis(1));
    }
    for (uint64_t i = 0; i < split.user_tag; ++i) {
      const uint64_t id = split.offset + i;
      ctx.emit(0, "k" + std::to_string(id), "v" + std::to_string(id));
    }
    return false;
  }

 private:
  std::shared_ptr<Gate> gate_;
};

class CountSink : public MapFlowlet {
 public:
  explicit CountSink(std::shared_ptr<std::atomic<uint64_t>> seen)
      : seen_(std::move(seen)) {}
  void process(const KvPair&, Context&) override { seen_->fetch_add(1); }

 private:
  std::shared_ptr<std::atomic<uint64_t>> seen_;
};

// One gated loader -> count job. `gate` starts closed; records land in
// `seen` once it opens.
struct TestJob {
  std::shared_ptr<Gate> gate = std::make_shared<Gate>();
  std::shared_ptr<std::atomic<uint64_t>> seen =
      std::make_shared<std::atomic<uint64_t>>(0);

  JobWork work(uint64_t records = 8) const {
    JobWork w;
    auto g = gate;
    auto s = seen;
    const auto loader = w.graph.add_loader(
        "load", [g] { return std::make_unique<GateLoader>(g); });
    const auto sink = w.graph.add_map(
        "sink", [s] { return std::make_unique<CountSink>(s); });
    w.graph.connect(loader, sink);
    InputSplit split;
    split.user_tag = records;
    split.preferred_node = 0;
    w.inputs.add(loader, split);
    return w;
  }
};

// Polls until the ticket reaches `want` (e.g. kRunning, which wait() cannot
// observe because it only unblocks on terminal states).
bool wait_status(const std::shared_ptr<JobTicket>& ticket, JobStatus want,
                 Duration timeout = std::chrono::seconds(10)) {
  const TimePoint deadline = now() + timeout;
  while (now() < deadline) {
    if (ticket->status() == want) return true;
    std::this_thread::sleep_for(millis(1));
  }
  return ticket->status() == want;
}

// Appends `tag` to `order` when the job completes on the lane thread; with
// one lane the completion order is the dispatch order.
std::function<std::string(Engine&)> order_recorder(
    std::shared_ptr<std::vector<std::string>> order,
    std::shared_ptr<std::mutex> mu, std::string tag) {
  return [order, mu, tag](Engine&) {
    std::lock_guard<std::mutex> lock(*mu);
    order->push_back(tag);
    return tag;
  };
}

ServiceConfig fast_lanes() {
  ServiceConfig cfg;
  cfg.engine = EngineConfig::fast();
  return cfg;
}

JobSpec tenant_spec(std::string tenant) {
  JobSpec spec;
  spec.tenant = std::move(tenant);
  return spec;
}

ServiceConfig single_lane(size_t max_queued = 16) {
  ServiceConfig cfg;
  cfg.lanes = 1;
  cfg.max_queued = max_queued;
  cfg.engine = EngineConfig::fast();
  return cfg;
}

}  // namespace

// --- basic lifecycle --------------------------------------------------------

TEST(JobService, RunsJobAndMergesServiceMetrics) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  ServiceConfig cfg;
  cfg.engine = EngineConfig::fast();
  JobService svc(cluster, cfg);

  TestJob tj;
  tj.gate->open();
  JobWork work = tj.work(/*records=*/24);
  auto seen = tj.seen;
  work.collect = [seen](Engine&) { return std::to_string(seen->load()); };

  auto ticket = svc.submit(JobSpec{}, std::move(work));
  ASSERT_EQ(ticket->wait(), JobStatus::kDone);
  EXPECT_EQ(ticket->payload(), "24");
  EXPECT_EQ(ticket->error(), "");
  EXPECT_EQ(tj.seen->load(), 24u);

  // Service observability rides along in the job's metric snapshot.
  const JobResult result = ticket->result();
  EXPECT_GT(result.metrics.counter("engine.records"), 0u);
  EXPECT_FALSE(result.cancelled);
  EXPECT_GE(result.metrics.counter("service.jobs_submitted"), 1u);
  EXPECT_GE(result.metrics.counter("service.jobs_done"), 1u);
  EXPECT_EQ(result.metrics.gauge("service.jobs_queued"), 0);
  EXPECT_EQ(result.metrics.gauge("service.jobs_running"), 0);
  const auto* wait_h = result.metrics.histogram("service.queue_wait_us");
  ASSERT_NE(wait_h, nullptr);
  EXPECT_GE(wait_h->count, 1u);
}

TEST(JobService, FailedJobSurfacesErrorAndLeavesLaneUsable) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  JobService svc(cluster, single_lane());

  // Loader with no downstream edge and a null factory: Engine::run throws.
  JobWork bad;
  bad.graph.add_loader("broken", nullptr);
  auto t1 = svc.submit(JobSpec{}, std::move(bad));
  ASSERT_EQ(t1->wait(), JobStatus::kFailed);
  EXPECT_NE(t1->error(), "");
  EXPECT_GE(t1->result().metrics.counter("service.jobs_failed"), 1u);

  // The lane survives a failed run and takes the next job.
  TestJob tj;
  tj.gate->open();
  auto t2 = svc.submit(JobSpec{}, tj.work());
  EXPECT_EQ(t2->wait(), JobStatus::kDone);
  EXPECT_EQ(tj.seen->load(), 8u);
}

// --- admission control ------------------------------------------------------

TEST(JobService, FullQueueShedsWithExplicitReject) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  JobService svc(cluster, single_lane(/*max_queued=*/2));

  // Occupy the only lane, then fill the queue to its bound.
  TestJob blocker;
  auto running = svc.submit(JobSpec{}, blocker.work());
  ASSERT_TRUE(wait_status(running, JobStatus::kRunning));

  TestJob f1, f2;
  f1.gate->open();
  f2.gate->open();
  auto q1 = svc.submit(JobSpec{}, f1.work());
  auto q2 = svc.submit(JobSpec{}, f2.work());
  EXPECT_EQ(q1->status(), JobStatus::kQueued);
  EXPECT_EQ(q2->status(), JobStatus::kQueued);

  // The next submit is shed immediately: the ticket comes back already
  // terminal (the admission decision never blocks the submitting thread).
  TestJob shed;
  const TimePoint before = now();
  auto rejected = svc.submit(JobSpec{}, shed.work());
  EXPECT_LT(now() - before, std::chrono::seconds(1));
  EXPECT_EQ(rejected->status(), JobStatus::kRejected);
  EXPECT_EQ(rejected->error(), "admission queue full");
  EXPECT_GE(rejected->result().metrics.counter("service.jobs_rejected"), 1u);

  blocker.gate->open();
  EXPECT_EQ(running->wait(), JobStatus::kDone);
  EXPECT_EQ(q1->wait(), JobStatus::kDone);
  EXPECT_EQ(q2->wait(), JobStatus::kDone);
  EXPECT_EQ(shed.seen->load(), 0u);
}

// --- scheduling -------------------------------------------------------------

TEST(JobService, PriorityOrdersDispatchWithinTenant) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  JobService svc(cluster, single_lane());

  TestJob blocker;
  auto running = svc.submit(JobSpec{}, blocker.work());
  ASSERT_TRUE(wait_status(running, JobStatus::kRunning));

  auto order = std::make_shared<std::vector<std::string>>();
  auto mu = std::make_shared<std::mutex>();
  std::vector<std::shared_ptr<JobTicket>> tickets;
  for (const int priority : {0, 5, 1}) {
    TestJob tj;
    tj.gate->open();
    JobWork work = tj.work();
    work.collect = order_recorder(order, mu, "p" + std::to_string(priority));
    JobSpec spec;
    spec.priority = priority;
    tickets.push_back(svc.submit(spec, std::move(work)));
  }

  blocker.gate->open();
  for (auto& t : tickets) ASSERT_EQ(t->wait(), JobStatus::kDone);
  // One lane: completion order == dispatch order == descending priority.
  EXPECT_EQ(*order, (std::vector<std::string>{"p5", "p1", "p0"}));
}

TEST(JobService, EqualWeightTenantsShareWithinTwofold) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  JobService svc(cluster, single_lane());

  TestJob blocker;
  JobSpec blocker_spec;
  blocker_spec.tenant = "zz-blocker";
  auto running = svc.submit(blocker_spec, blocker.work());
  ASSERT_TRUE(wait_status(running, JobStatus::kRunning));

  // Tenant "a" floods first; tenant "b" arrives after. Stride scheduling
  // must still interleave them instead of draining "a" to completion.
  auto order = std::make_shared<std::vector<std::string>>();
  auto mu = std::make_shared<std::mutex>();
  std::vector<std::shared_ptr<JobTicket>> tickets;
  for (const char* tenant : {"a", "a", "a", "a", "b", "b", "b", "b"}) {
    TestJob tj;
    tj.gate->open();
    JobWork work = tj.work();
    work.collect = order_recorder(order, mu, tenant);
    JobSpec spec;
    spec.tenant = tenant;
    tickets.push_back(svc.submit(spec, std::move(work)));
  }

  blocker.gate->open();
  for (auto& t : tickets) ASSERT_EQ(t->wait(), JobStatus::kDone);

  // Every dispatch prefix stays within 2x between the equal-weight tenants
  // (stride with weight 1:1 alternates, so the counts differ by at most 1).
  ASSERT_EQ(order->size(), 8u);
  int a = 0, b = 0;
  for (const std::string& tenant : *order) {
    (tenant == "a" ? a : b)++;
    EXPECT_LE(std::abs(a - b), 1) << "unfair prefix: a=" << a << " b=" << b;
  }
  EXPECT_EQ(a, 4);
  EXPECT_EQ(b, 4);
}

TEST(JobService, WeightedTenantReceivesProportionalShare) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  ServiceConfig cfg = single_lane();
  cfg.tenant_weights["heavy"] = 2.0;
  JobService svc(cluster, cfg);

  TestJob blocker;
  JobSpec blocker_spec;
  blocker_spec.tenant = "zz-blocker";
  auto running = svc.submit(blocker_spec, blocker.work());
  ASSERT_TRUE(wait_status(running, JobStatus::kRunning));

  auto order = std::make_shared<std::vector<std::string>>();
  auto mu = std::make_shared<std::mutex>();
  std::vector<std::shared_ptr<JobTicket>> tickets;
  for (int i = 0; i < 6; ++i) {
    for (const char* tenant : {"heavy", "light"}) {
      TestJob tj;
      tj.gate->open();
      JobWork work = tj.work();
      work.collect = order_recorder(order, mu, tenant);
      JobSpec spec;
      spec.tenant = tenant;
      tickets.push_back(svc.submit(spec, std::move(work)));
    }
  }

  blocker.gate->open();
  for (auto& t : tickets) ASSERT_EQ(t->wait(), JobStatus::kDone);

  // While both tenants have queued work (the first 9 dispatches: 6 heavy +
  // 3 light at a 2:1 stride), heavy gets about twice light's share.
  ASSERT_EQ(order->size(), 12u);
  int heavy = 0;
  for (size_t i = 0; i < 9; ++i) heavy += (*order)[i] == "heavy";
  EXPECT_GE(heavy, 5);
  EXPECT_LE(heavy, 7);
}

// --- cancel / deadline ------------------------------------------------------

TEST(JobService, CancelQueuedJobNeverRuns) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  JobService svc(cluster, single_lane());

  TestJob blocker;
  auto running = svc.submit(JobSpec{}, blocker.work());
  ASSERT_TRUE(wait_status(running, JobStatus::kRunning));

  TestJob queued;
  queued.gate->open();
  auto ticket = svc.submit(JobSpec{}, queued.work());
  EXPECT_TRUE(svc.cancel(ticket->id()));
  EXPECT_EQ(ticket->status(), JobStatus::kCancelled);
  EXPECT_EQ(ticket->error(), "cancelled while queued");
  EXPECT_FALSE(svc.cancel(ticket->id()));  // already terminal
  EXPECT_FALSE(svc.cancel(999999));        // unknown id

  blocker.gate->open();
  EXPECT_EQ(running->wait(), JobStatus::kDone);
  EXPECT_EQ(queued.seen->load(), 0u);
  EXPECT_GE(ticket->result().metrics.counter("service.jobs_cancelled"), 1u);
}

TEST(JobService, CancelRunningJobAbortsCleanly) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  JobService svc(cluster, single_lane());

  // The gate never opens: the loader can only exit through the stream-stop
  // flag Engine::request_cancel raises.
  TestJob tj;
  auto ticket = svc.submit(JobSpec{}, tj.work());
  ASSERT_TRUE(wait_status(ticket, JobStatus::kRunning));
  EXPECT_TRUE(svc.cancel(ticket->id()));
  ASSERT_EQ(ticket->wait(), JobStatus::kCancelled);
  EXPECT_TRUE(ticket->result().cancelled);
  EXPECT_GE(ticket->result().metrics.counter("service.jobs_cancelled"), 1u);

  // The lane is immediately reusable after an aborted job.
  TestJob next;
  next.gate->open();
  auto t2 = svc.submit(JobSpec{}, next.work());
  EXPECT_EQ(t2->wait(), JobStatus::kDone);
}

TEST(JobService, DeadlineAbortsRunningJob) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  JobService svc(cluster, single_lane());

  TestJob tj;
  JobSpec spec;
  spec.deadline = millis(150);
  auto ticket = svc.submit(spec, tj.work());
  ASSERT_EQ(ticket->wait(std::chrono::seconds(30)),
            JobStatus::kDeadlineExceeded);
  EXPECT_EQ(ticket->error(), "deadline exceeded");
  EXPECT_GE(ticket->result().metrics.counter("service.jobs_deadline_exceeded"),
            1u);
}

TEST(JobService, DeadlineReapsQueuedJobBeforeDispatch) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  JobService svc(cluster, single_lane());

  TestJob blocker;
  auto running = svc.submit(JobSpec{}, blocker.work());
  ASSERT_TRUE(wait_status(running, JobStatus::kRunning));

  TestJob queued;
  queued.gate->open();
  JobSpec spec;
  spec.deadline = millis(100);
  auto ticket = svc.submit(spec, queued.work());
  ASSERT_EQ(ticket->wait(std::chrono::seconds(30)),
            JobStatus::kDeadlineExceeded);
  EXPECT_EQ(queued.seen->load(), 0u);

  blocker.gate->open();
  EXPECT_EQ(running->wait(), JobStatus::kDone);
}

// --- retention --------------------------------------------------------------

// The service holds a job only while it is live: every terminal path lets go
// of the job and its ticket, so a caller that drops its ticket frees it.
TEST(JobService, TerminalJobsReleaseTheirTickets) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  JobService svc(cluster, single_lane(/*max_queued=*/1));

  // Done and failed: the lane retires a job before it takes the next one,
  // so once a later job has run nothing in the service holds the earlier.
  std::weak_ptr<JobTicket> done_ref, failed_ref;
  {
    TestJob tj;
    tj.gate->open();
    auto done = svc.submit(JobSpec{}, tj.work());
    ASSERT_EQ(done->wait(), JobStatus::kDone);
    done_ref = done;
    JobWork bad;
    bad.graph.add_loader("broken", nullptr);
    auto failed = svc.submit(JobSpec{}, std::move(bad));
    ASSERT_EQ(failed->wait(), JobStatus::kFailed);
    failed_ref = failed;
  }
  TestJob next;
  next.gate->open();
  ASSERT_EQ(svc.submit(JobSpec{}, next.work())->wait(), JobStatus::kDone);
  EXPECT_TRUE(done_ref.expired());
  EXPECT_TRUE(failed_ref.expired());

  // Cancelled while queued and rejected: retired before the call returns.
  TestJob blocker;
  auto running = svc.submit(JobSpec{}, blocker.work());
  ASSERT_TRUE(wait_status(running, JobStatus::kRunning));
  std::weak_ptr<JobTicket> cancelled_ref, rejected_ref;
  {
    TestJob queued;
    auto cancelled = svc.submit(JobSpec{}, queued.work());
    ASSERT_TRUE(svc.cancel(cancelled->id()));
    cancelled_ref = cancelled;
  }
  EXPECT_TRUE(cancelled_ref.expired());
  {
    TestJob queued, shed;
    auto waiting = svc.submit(JobSpec{}, queued.work());  // fills the queue
    auto rejected = svc.submit(JobSpec{}, shed.work());
    ASSERT_EQ(rejected->status(), JobStatus::kRejected);
    rejected_ref = rejected;
    ASSERT_TRUE(svc.cancel(waiting->id()));
  }
  EXPECT_TRUE(rejected_ref.expired());

  // Deadline while queued: the reaper retires the job under the service
  // lock it finalizes under, so any later call that takes the lock (here
  // cancel, which no longer knows the id) orders after the release.
  std::weak_ptr<JobTicket> deadline_ref;
  {
    TestJob queued;
    JobSpec spec;
    spec.deadline = millis(20);
    auto expired = svc.submit(spec, queued.work());
    ASSERT_EQ(expired->wait(std::chrono::seconds(30)),
              JobStatus::kDeadlineExceeded);
    EXPECT_FALSE(svc.cancel(expired->id()));
    deadline_ref = expired;
  }
  EXPECT_TRUE(deadline_ref.expired());

  // Shutdown: the running job is retired by its lane before the lane exits.
  std::weak_ptr<JobTicket> running_ref = running;
  running.reset();
  svc.shutdown();
  EXPECT_TRUE(running_ref.expired());
}

// --- concurrent execution ---------------------------------------------------

TEST(JobService, TwoLanesMakeConcurrentProgress) {
  obs::EventLog log;
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  ServiceConfig cfg;
  cfg.lanes = 2;
  cfg.engine = EngineConfig::fast();
  cfg.event_log = &log;
  JobService svc(cluster, cfg);

  // Rendezvous: each job's loader parks until BOTH jobs have started, so
  // neither can finish unless they genuinely overlap in wall-clock time.
  auto rendezvous = std::make_shared<Gate>();
  rendezvous->release_at.store(2);
  TestJob a, b;
  a.gate = rendezvous;
  b.gate = rendezvous;

  auto ta = svc.submit(tenant_spec("a"), a.work(/*records=*/16));
  auto tb = svc.submit(tenant_spec("b"), b.work(/*records=*/16));
  ASSERT_EQ(ta->wait(std::chrono::seconds(30)), JobStatus::kDone);
  ASSERT_EQ(tb->wait(std::chrono::seconds(30)), JobStatus::kDone);
  EXPECT_EQ(a.seen->load() + b.seen->load(), 32u);

  // The event log proves the overlap: each job dispatched before the other
  // finished.
  auto seq_of = [&](uint64_t job_id, obs::EventKind kind) -> int64_t {
    for (const auto& e : log.events()) {
      if (e.flowlet == static_cast<int64_t>(job_id) && e.kind == kind) {
        return static_cast<int64_t>(e.seq);
      }
    }
    return -1;
  };
  const int64_t disp_a = seq_of(ta->id(), obs::EventKind::kJobDispatched);
  const int64_t disp_b = seq_of(tb->id(), obs::EventKind::kJobDispatched);
  const int64_t done_a = seq_of(ta->id(), obs::EventKind::kJobDone);
  const int64_t done_b = seq_of(tb->id(), obs::EventKind::kJobDone);
  ASSERT_GE(disp_a, 0);
  ASSERT_GE(disp_b, 0);
  ASSERT_GE(done_a, 0);
  ASSERT_GE(done_b, 0);
  EXPECT_LT(disp_a, done_b);
  EXPECT_LT(disp_b, done_a);
}

// --- chaos ------------------------------------------------------------------

namespace {

// Word-count flowlets for the chaos case: a rendezvous-gated loader emitting
// a deterministic word stream, and a reduce sink counting occurrences into a
// test-owned map.
class WordLoader : public LoaderFlowlet {
 public:
  explicit WordLoader(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}

  bool load_chunk(const InputSplit& split, uint64_t* cursor,
                  Context& ctx) override {
    if (*cursor == 0) {
      *cursor = 1;
      gate_->arrived.fetch_add(1);
      while (!gate_->is_open() && !ctx.stream_stopping()) {
        std::this_thread::sleep_for(millis(1));
      }
    }
    for (uint64_t i = 0; i < split.user_tag; ++i) {
      const uint64_t id = split.offset + i;
      ctx.emit(0, "w" + std::to_string(id % 23), "1");
    }
    return false;
  }

 private:
  std::shared_ptr<Gate> gate_;
};

struct CountMap {
  std::mutex mu;
  std::map<std::string, uint64_t> counts;

  std::string serialized() {
    std::lock_guard<std::mutex> lock(mu);
    std::string out;
    for (const auto& [word, n] : counts) {
      out += word + "\t" + std::to_string(n) + "\n";
    }
    return out;
  }
};

class WordCountReduce : public ReduceFlowlet {
 public:
  explicit WordCountReduce(std::shared_ptr<CountMap> out)
      : out_(std::move(out)) {}

  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              Context&) override {
    std::lock_guard<std::mutex> lock(out_->mu);
    out_->counts[std::string(key)] += values.size();
  }

 private:
  std::shared_ptr<CountMap> out_;
};

JobWork wordcount_work(std::shared_ptr<Gate> gate,
                       std::shared_ptr<CountMap> out, uint32_t nodes,
                       uint64_t per_node) {
  JobWork w;
  const auto loader = w.graph.add_loader(
      "words", [gate] { return std::make_unique<WordLoader>(gate); });
  const auto counts = w.graph.add_reduce(
      "count", [out] { return std::make_unique<WordCountReduce>(out); });
  w.graph.connect(loader, counts);
  for (uint32_t n = 0; n < nodes; ++n) {
    InputSplit split;
    split.offset = n * per_node;
    split.user_tag = per_node;
    split.preferred_node = n;
    w.inputs.add(loader, split);
  }
  return w;
}

}  // namespace

TEST(JobServiceChaos, ConcurrentWordCountsStayByteIdenticalUnderDrops) {
  // 5% of each lane's shuffle frames are dropped / duplicated / delayed while
  // two word counts run concurrently on lanes 0 and 1; both outputs must
  // equal the fault-free reference byte for byte.
  fault::FaultInjector injector(fault::FaultPlan::chaos(/*seed=*/21,
                                                        /*msg_rate=*/0.05));
  cluster::Cluster cluster(cluster::ClusterConfig::fast(4));
  cluster.set_fault_injector(&injector);

  ServiceConfig cfg;
  cfg.lanes = 2;
  cfg.engine = EngineConfig::fast();
  cfg.engine.fault_injector = &injector;
  JobService svc(cluster, cfg);

  constexpr uint32_t kNodes = 4;
  constexpr uint64_t kPerNode = 3000;
  auto rendezvous = std::make_shared<Gate>();
  rendezvous->release_at.store(2 * static_cast<int>(kNodes));

  auto out_a = std::make_shared<CountMap>();
  auto out_b = std::make_shared<CountMap>();
  auto ta = svc.submit(tenant_spec("a"),
                       wordcount_work(rendezvous, out_a, kNodes, kPerNode));
  auto tb = svc.submit(tenant_spec("b"),
                       wordcount_work(rendezvous, out_b, kNodes, kPerNode));
  ASSERT_EQ(ta->wait(std::chrono::seconds(120)), JobStatus::kDone);
  ASSERT_EQ(tb->wait(std::chrono::seconds(120)), JobStatus::kDone);

  CountMap reference;
  for (uint64_t id = 0; id < kNodes * kPerNode; ++id) {
    reference.counts["w" + std::to_string(id % 23)]++;
  }
  const std::string expected = reference.serialized();
  EXPECT_EQ(out_a->serialized(), expected);
  EXPECT_EQ(out_b->serialized(), expected);
  EXPECT_GT(injector.stats().total(), 0u);
}

// --- RPC front-end ----------------------------------------------------------

namespace {

// Builder for the RPC tests: args = decimal record count; the payload is the
// count of records the sink saw.
JobBuilder count_builder() {
  return [](const JobSpec& spec) {
    TestJob tj;
    tj.gate->open();
    JobWork w = tj.work(std::stoull(spec.args));
    auto seen = tj.seen;
    w.collect = [seen](Engine&) { return std::to_string(seen->load()); };
    return w;
  };
}

}  // namespace

TEST(JobRpc, SubmitPollResultOverInProcCluster) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  JobService svc(cluster, fast_lanes());
  svc.register_builder("count", count_builder());

  // Server on node 0's rpc; client calls from node 1 over the fabric.
  JobRpcServer server(&svc, &cluster.node(0).rpc());
  JobClient client(cluster.node(1).rpc(), /*server=*/0);

  JobSpec spec;
  spec.job_type = "count";
  spec.args = "64";
  JobStatus at_submit = JobStatus::kRejected;
  const uint64_t id = client.submit(spec, &at_submit);
  EXPECT_EQ(at_submit, JobStatus::kQueued);
  EXPECT_EQ(client.wait(id), JobStatus::kDone);

  const JobClient::RemoteResult result = client.result(id);
  EXPECT_EQ(result.status, JobStatus::kDone);
  EXPECT_EQ(result.payload, "64");
  EXPECT_EQ(result.error, "");
  EXPECT_GT(result.records_emitted, 0u);

  EXPECT_FALSE(client.cancel(999999));       // unknown id: clean false
  EXPECT_THROW(client.poll(999999), std::runtime_error);
  JobSpec bad;
  bad.job_type = "no-such-type";
  EXPECT_THROW(client.submit(bad), std::runtime_error);
}

TEST(JobRpc, ServesOverTcpSockets) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  JobService svc(cluster, fast_lanes());
  svc.register_builder("count", count_builder());
  // A megabyte of padding in the payload exercises the multi-frame TCP path.
  svc.register_builder("padded", [](const JobSpec& spec) {
    TestJob tj;
    tj.gate->open();
    JobWork w = tj.work(std::stoull(spec.args));
    auto seen = tj.seen;
    w.collect = [seen](Engine&) {
      return std::string(1 << 20, 'x') + std::to_string(seen->load());
    };
    return w;
  });

  // Control plane over real sockets: server endpoint 0, client endpoint 1.
  net::TcpTransport fabric(2);
  net::Router server_router(fabric.endpoint(0));
  net::Router client_router(fabric.endpoint(1));
  net::Rpc server_rpc(&server_router);
  net::Rpc client_rpc(&client_router);
  JobRpcServer server(&svc, &server_rpc);
  fabric.start();

  JobClient client(client_rpc, /*server=*/0);
  JobSpec spec;
  spec.job_type = "padded";
  spec.args = "32";
  const uint64_t id = client.submit(spec);
  EXPECT_EQ(client.wait(id), JobStatus::kDone);
  const JobClient::RemoteResult result = client.result(id);
  EXPECT_EQ(result.status, JobStatus::kDone);
  EXPECT_EQ(result.payload, std::string(1 << 20, 'x') + "32");
  fabric.stop();
}

// The service forgets a job once it is terminal; the RPC server keeps the
// tickets it issued, so poll and result still answer afterwards.
TEST(JobRpc, PollAndResultAnswerAfterTheServiceRetiredTheJob) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  JobService svc(cluster, single_lane());
  svc.register_builder("count", count_builder());
  JobRpcServer server(&svc, &cluster.node(0).rpc());
  JobClient client(cluster.node(1).rpc(), /*server=*/0);

  JobSpec spec;
  spec.job_type = "count";
  spec.args = "16";
  const uint64_t first = client.submit(spec);
  ASSERT_EQ(client.wait(first), JobStatus::kDone);
  // One lane: the second job runs only after the lane retired the first.
  spec.args = "8";
  const uint64_t second = client.submit(spec);
  ASSERT_EQ(client.wait(second), JobStatus::kDone);

  EXPECT_EQ(client.poll(first), JobStatus::kDone);
  const JobClient::RemoteResult result = client.result(first);
  EXPECT_EQ(result.status, JobStatus::kDone);
  EXPECT_EQ(result.payload, "16");
  EXPECT_GT(result.records_emitted, 0u);
  EXPECT_EQ(client.result(second).payload, "8");
  EXPECT_FALSE(client.cancel(first));  // terminal: nothing to cancel
}

// --- shutdown ---------------------------------------------------------------

TEST(JobService, ShutdownCancelsQueuedAndRunningJobs) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  JobService svc(cluster, single_lane());

  TestJob running_job;  // gate never opens; only shutdown can end it
  auto running = svc.submit(JobSpec{}, running_job.work());
  ASSERT_TRUE(wait_status(running, JobStatus::kRunning));
  TestJob queued_job;
  queued_job.gate->open();
  auto queued = svc.submit(JobSpec{}, queued_job.work());

  svc.shutdown();
  EXPECT_EQ(queued->status(), JobStatus::kCancelled);
  EXPECT_EQ(queued->error(), "service shutdown");
  EXPECT_TRUE(is_terminal(running->status()));
  EXPECT_EQ(queued_job.seen->load(), 0u);

  // Submits after shutdown shed immediately.
  TestJob late;
  auto rejected = svc.submit(JobSpec{}, late.work());
  EXPECT_EQ(rejected->status(), JobStatus::kRejected);
  EXPECT_EQ(rejected->error(), "service shutting down");
}
