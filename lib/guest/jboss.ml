let spec =
  {
    Service.service_name = "jboss";
    start_shared_work = 7.0;
    start_private_s = 9.5;
    stop_private_s = 4.0;
  }

let install kernel = Kernel.make_service kernel spec
