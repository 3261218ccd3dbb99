//! End-to-end tests of the TCP deployment: a real multi-threaded,
//! multi-socket run of the SD-Rtree protocol on localhost.

use sdr_core::{Object, Oid, SdrConfig, ServerId};
use sdr_geom::{Point, Rect};
use sdr_net::{NetClient, NetCluster};
use std::net::TcpStream;

#[test]
fn insert_and_query_over_tcp() {
    let cluster = NetCluster::launch_auto(SdrConfig::with_capacity(25)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();

    // A 10x10 grid of rectangles: forces several splits at capacity 25.
    for i in 0..100u64 {
        let x = (i % 10) as f64 / 10.0;
        let y = (i / 10) as f64 / 10.0;
        client
            .insert(Object::new(Oid(i), Rect::new(x, y, x + 0.05, y + 0.05)))
            .unwrap();
    }
    client.quiesce().unwrap();
    assert!(
        cluster.num_servers() >= 4,
        "expected splits, got {}",
        cluster.num_servers()
    );

    // Every object is retrievable by point query.
    for i in [0u64, 9, 42, 55, 99] {
        let x = (i % 10) as f64 / 10.0 + 0.025;
        let y = (i / 10) as f64 / 10.0 + 0.025;
        let hits = client.point_query(Point::new(x, y)).unwrap();
        assert!(
            hits.iter().any(|o| o.oid == Oid(i)),
            "object {i} missing from point query"
        );
    }

    // Window query over a quadrant.
    let hits = client
        .window_query(Rect::new(0.0, 0.0, 0.44, 0.44))
        .unwrap();
    assert_eq!(hits.len(), 25, "quadrant window should hit a 5x5 block");

    cluster.shutdown();
}

#[test]
fn delete_over_tcp() {
    let cluster = NetCluster::launch_auto(SdrConfig::with_capacity(50)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    for i in 0..60u64 {
        let x = (i % 8) as f64 / 8.0;
        let y = (i / 8) as f64 / 8.0;
        client
            .insert(Object::new(Oid(i), Rect::new(x, y, x + 0.04, y + 0.04)))
            .unwrap();
    }
    client.quiesce().unwrap();
    let target = Object::new(
        Oid(13),
        Rect::new(5.0 / 8.0, 1.0 / 8.0, 5.0 / 8.0 + 0.04, 1.0 / 8.0 + 0.04),
    );
    assert!(
        client.delete(target).unwrap(),
        "delete should find object 13"
    );
    client.quiesce().unwrap();
    let hits = client
        .point_query(Point::new(5.0 / 8.0 + 0.02, 1.0 / 8.0 + 0.02))
        .unwrap();
    assert!(
        hits.iter().all(|o| o.oid != Oid(13)),
        "object 13 still present"
    );
    cluster.shutdown();
}

#[test]
fn two_clients_share_one_structure() {
    let cluster = NetCluster::launch_auto(SdrConfig::with_capacity(30)).unwrap();
    let mut writer = NetClient::connect(&cluster).unwrap();
    for i in 0..80u64 {
        let x = (i % 9) as f64 / 9.0;
        let y = (i / 9) as f64 / 9.0;
        writer
            .insert(Object::new(Oid(i), Rect::new(x, y, x + 0.03, y + 0.03)))
            .unwrap();
    }
    writer.quiesce().unwrap();
    // A second client with an empty image still gets complete answers
    // (its first queries go to its contact server and repair from there).
    let mut reader = NetClient::connect(&cluster).unwrap();
    let hits = reader.window_query(Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap();
    assert_eq!(hits.len(), 80);
    // And its image has learned some of the structure from the IAMs.
    assert!(reader.image().known_servers() >= 2);
    cluster.shutdown();
}

#[test]
fn knn_over_tcp() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(30)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    for i in 0..90u64 {
        let x = (i % 10) as f64 / 10.0;
        let y = (i / 10) as f64 / 10.0;
        client
            .insert(Object::new(Oid(i), Rect::new(x, y, x + 0.02, y + 0.02)))
            .unwrap();
    }
    client.quiesce().unwrap();
    let p = Point::new(0.51, 0.51);
    let nn = client.knn(p, 4).unwrap();
    assert_eq!(nn.len(), 4);
    for pair in nn.windows(2) {
        assert!(pair[0].1 <= pair[1].1, "distances must be sorted");
    }
    // The nearest object is the grid cell at (0.5, 0.5).
    assert_eq!(nn[0].0.oid, Oid(55));
    cluster.shutdown();
}

#[test]
fn out_of_range_insert_corrects_the_image_before_returning() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(25)).unwrap();
    let mut writer = NetClient::connect(&cluster).unwrap();
    for i in 0..100u64 {
        let x = (i % 10) as f64 / 10.0;
        let y = (i / 10) as f64 / 10.0;
        writer
            .insert(Object::new(Oid(i), Rect::new(x, y, x + 0.05, y + 0.05)))
            .unwrap();
    }
    assert!(cluster.num_servers() >= 2, "need a split for this test");

    // A fresh client addresses server 0, and no data node covers an
    // object beyond every stored one: the insert goes out of range, so
    // the server acknowledges it with an IAM (§3.2).
    let mut client = NetClient::connect(&cluster).unwrap();
    assert_eq!(client.image().known_servers(), 0);
    client
        .insert(Object::new(Oid(500), Rect::new(0.97, 0.97, 0.98, 0.98)))
        .unwrap();
    assert!(
        client.image().known_servers() >= 1,
        "the ack's IAM was not absorbed when insert returned"
    );
    assert!(cluster.in_flight() <= 0);
    assert_eq!(cluster.delivery_failures(), 0);
    cluster.shutdown();
}

#[test]
fn shutdown_stops_every_node_listener() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(25)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    for i in 0..60u64 {
        let x = (i % 10) as f64 / 10.0;
        let y = (i / 10) as f64 / 10.0;
        client
            .insert(Object::new(Oid(i), Rect::new(x, y, x + 0.05, y + 0.05)))
            .unwrap();
    }
    let ports: Vec<u16> = (0..cluster.num_servers() as u32)
        .filter_map(|s| cluster.server_port(ServerId(s)))
        .collect();
    assert!(ports.len() >= 2, "need a split for this test");
    drop(client);
    // Shutdown joins each node thread, and a listener closes with its
    // thread: nothing may still accept once it returns.
    cluster.shutdown();
    for port in ports {
        assert!(
            TcpStream::connect(("127.0.0.1", port)).is_err(),
            "a node still listens on port {port} after shutdown"
        );
    }
    cluster.shutdown();
}
