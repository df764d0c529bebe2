//! Criterion bench for experiment E5: concurrent read throughput as a function
//! of the module threadpool size (the §II architecture claim). Each iteration
//! pushes a batch of 1-hop count queries from several client threads, each
//! dispatching through `RedisGraphServer::handle`, and waits for every reply.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datagen::{KhopWorkload, SeedSelection};
use redisgraph_bench::{load_dataset, Dataset};
use redisgraph_server::{RedisGraphServer, ServerConfig};
use std::hint::black_box;
use std::sync::Arc;

const QUERIES_PER_ITER: usize = 64;
const CLIENTS: usize = 4;

fn throughput_scaling(c: &mut Criterion) {
    let loaded = load_dataset(Dataset::Graph500, 10, 42);
    let degrees = loaded.edges.out_degrees();
    let workload = KhopWorkload::with_seed_count(
        1,
        loaded.edges.num_vertices,
        &degrees,
        SeedSelection::NonIsolated,
        7,
        QUERIES_PER_ITER,
    );

    let mut group = c.benchmark_group("throughput/pool_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(QUERIES_PER_ITER as u64));
    for pool_size in [1usize, 2, 4] {
        // One server per pool size, reused across iterations.
        let server = Arc::new(RedisGraphServer::new(ServerConfig {
            thread_count: pool_size,
            ..ServerConfig::default()
        }));
        server.graph("bench").write().bulk_load(loaded.edges.num_vertices, &loaded.edges.edges);

        group.bench_with_input(BenchmarkId::new("pool", pool_size), &pool_size, |b, _| {
            b.iter(|| {
                let mut client_handles = Vec::new();
                for chunk in workload.seeds.chunks(QUERIES_PER_ITER / CLIENTS) {
                    let server = Arc::clone(&server);
                    let seeds = chunk.to_vec();
                    client_handles.push(std::thread::spawn(move || {
                        for seed in seeds {
                            let query = format!(
                                "MATCH (s:Node)-[*1..1]->(t) WHERE id(s) = {seed} RETURN count(t)"
                            );
                            black_box(server.query("bench", &query));
                        }
                    }));
                }
                for h in client_handles {
                    h.join().unwrap();
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, throughput_scaling);
criterion_main!(benches);
